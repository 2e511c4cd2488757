// Package emm implements a dynamic, response-revealing encrypted multimap
// (EMM) in the style of the 2Lev construction of Cash et al. (NDSS 2014)
// as packaged by the Clusion library the paper builds on.
//
// An EMM maps keywords to lists of document identifiers without revealing
// the keywords to the server. This implementation is two-level, mirroring
// 2Lev's design for read efficiency:
//
//   - a *packed* level: at (re)build time each keyword's identifier list is
//     sealed into fixed-capacity buckets stored under PRF-derived addresses
//     (good locality, one fetch per bucket);
//   - a *tail* level: dynamic appends land in per-entry cells addressed by
//     a client-side counter (the standard dynamic-EMM counter chain).
//
// Search tokens carry per-keyword derived keys plus the two counters; the
// server resolves addresses, decrypts the cells with the token's value key
// (response-revealing — the access pattern and result identifiers leak,
// i.e. "Identifiers"-level leakage; boolean composition on top of this
// structure yields the "Predicates" level of BIEX), and returns plaintext
// identifiers.
package emm

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"datablinder/internal/crypto/keycache"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/wirefmt"
)

// BucketCapacity is the number of identifiers per packed bucket.
const BucketCapacity = 8

// Errors returned by this package.
var (
	ErrBadToken = errors.New("emm: malformed search token")
	// ErrCellFormat reports a stored cell that is not in the one form its
	// multimap holds: a shared-payload cell under a sealed-cell Server
	// (NewServer) or the reverse (NewSharedServer). Nothing is retried in the
	// other form.
	ErrCellFormat = errors.New("emm: cell is not in this multimap's form")
)

// Counts is the client-side per-keyword state: how many packed buckets and
// how many tail entries exist for the keyword.
type Counts struct {
	Packed uint64 `json:"packed"`
	Tail   uint64 `json:"tail"`
}

// Entry is one encrypted cell destined for the server.
type Entry struct {
	Addr []byte `json:"addr"`
	Val  []byte `json:"val"`
}

// SearchToken lets the server resolve one keyword's cells. It reveals the
// per-keyword derived keys but nothing about the keyword itself.
type SearchToken struct {
	// AddrKey derives cell addresses: PRF(AddrKey, level || index).
	AddrKey []byte `json:"addr_key"`
	// ValueKey decrypts cell payloads.
	ValueKey []byte `json:"value_key"`
	// Counts bounds the address enumeration.
	Counts Counts `json:"counts"`
}

// Client is the gateway half of the EMM. It is safe for concurrent use.
type Client struct {
	keyAddr primitives.Key                             // derives per-keyword address keys
	keyVal  primitives.Key                             // derives per-keyword value keys
	store   *kvstore.Store                             // the gateway store: two counters per keyword
	kwKeys  *keycache.Cache[string, [2]primitives.Key] // (addr, value) pairs
}

// NewClient derives the EMM client keys from key. store keeps the
// per-keyword counters (the gateway's local Redis in the paper's
// deployment).
func NewClient(key primitives.Key, store *kvstore.Store) *Client {
	return &Client{
		keyAddr: primitives.PRFKey(key, []byte("emm-addr")),
		keyVal:  primitives.PRFKey(key, []byte("emm-val")),
		store:   store,
		kwKeys:  keycache.New[string, [2]primitives.Key](keycache.DefaultSize),
	}
}

func tailKey(namespace, w string) []byte {
	return []byte("emmtail/" + namespace + "\x00" + w)
}

func packedKey(namespace, w string) []byte {
	return []byte("emmpacked/" + namespace + "\x00" + w)
}

// counts returns keyword w's counters (zero if it has none).
func (c *Client) counts(namespace, w string) (Counts, error) {
	tail, err := c.store.Counter(tailKey(namespace, w))
	if err != nil {
		return Counts{}, fmt.Errorf("emm: loading tail state: %w", err)
	}
	packed, err := c.store.Counter(packedKey(namespace, w))
	if err != nil {
		return Counts{}, fmt.Errorf("emm: loading packed state: %w", err)
	}
	return Counts{Packed: uint64(packed), Tail: uint64(tail)}, nil
}

// nextTail reserves and returns the next tail index of w, atomically, so
// concurrent appends to one keyword never reuse a cell index.
func (c *Client) nextTail(namespace, w string) (uint64, error) {
	n, err := c.store.Incr(tailKey(namespace, w), 1)
	if err != nil {
		return 0, fmt.Errorf("emm: reserving tail index: %w", err)
	}
	return uint64(n - 1), nil
}

// setCounts stores keyword w's counters, in the form Incr keeps them.
func (c *Client) setCounts(namespace, w string, n Counts) error {
	if err := c.store.Set(tailKey(namespace, w), binary.BigEndian.AppendUint64(nil, n.Tail)); err != nil {
		return fmt.Errorf("emm: storing tail state: %w", err)
	}
	if err := c.store.Set(packedKey(namespace, w), binary.BigEndian.AppendUint64(nil, n.Packed)); err != nil {
		return fmt.Errorf("emm: storing packed state: %w", err)
	}
	return nil
}

// keywordKeys derives (or recalls) the per-keyword address and value keys.
func (c *Client) keywordKeys(namespace, w string) (addr, val primitives.Key) {
	ck := namespace + "\x00" + w
	if pair, ok := c.kwKeys.Get(ck); ok {
		return pair[0], pair[1]
	}
	addr = primitives.PRFKey(c.keyAddr, []byte(namespace), []byte{0}, []byte(w))
	val = primitives.PRFKey(c.keyVal, []byte(namespace), []byte{0}, []byte(w))
	c.kwKeys.Put(ck, [2]primitives.Key{addr, val})
	return addr, val
}

func (c *Client) addrKey(namespace, w string) primitives.Key {
	addr, _ := c.keywordKeys(namespace, w)
	return addr
}

// Cell levels, the first byte of an address derivation.
const (
	levelPacked = 'p'
	levelTail   = 't'
)

// addrWalk derives one keyword's cell addresses, PRF(addrKey, level ||
// index), under a PRF keyed once: a search over n cells keys HMAC once, not
// n times, and the per-keyword address key never enters the HMAC pool.
type addrWalk struct {
	prf *primitives.PRFState
	in  [9]byte // level || big-endian index
}

func newAddrWalk(addrKey primitives.Key) *addrWalk {
	return &addrWalk{prf: primitives.NewPRFState(addrKey)}
}

// appendAddr appends the address of cell i of level to dst.
func (w *addrWalk) appendAddr(dst []byte, level byte, i uint64) []byte {
	w.in[0] = level
	binary.BigEndian.PutUint64(w.in[1:], i)
	return w.prf.Append(dst, w.in[:])
}

// aeads caches constructed AEADs per keyword value key: cipher construction
// (key schedule + GCM tables) dominates small-cell seal/open costs. The
// cache is package-level so the client and server halves share it. Only
// keyword value keys go through it: a shared-payload group key is used once
// per cell and would only evict them.
var aeads = keycache.New[primitives.Key, *primitives.AEAD](keycache.DefaultSize)

func aeadFor(valueKey primitives.Key) (*primitives.AEAD, error) {
	return aeads.GetOrCompute(valueKey, func() (*primitives.AEAD, error) {
		return primitives.NewAEAD(valueKey)
	})
}

// sealIDs seals an identifier list as a count-prefixed sequence of
// length-prefixed strings (wirefmt.AppendStrings).
func sealIDs(aead *primitives.AEAD, ids []string) ([]byte, error) {
	return aead.Seal(wirefmt.AppendStrings(nil, ids), nil)
}

// openSealedIDs reverses sealIDs.
func openSealedIDs(aead *primitives.AEAD, blob []byte) ([]string, error) {
	pt, err := aead.Open(blob, nil)
	if err != nil {
		return nil, err
	}
	r := wirefmt.NewReader(pt)
	ids := r.Strings()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("emm: decoding ids: %w", err)
	}
	return ids, nil
}

// Shared-payload cells
//
// An operation that fans one identical identifier list into many keywords'
// cells (BIEX's pair replication: a k-keyword document writes O(k²) pair
// cells all carrying the same versioned id) would seal the same plaintext
// under O(k²) different value keys — distinct ciphertexts, so nothing
// downstream can deduplicate them. The shared-payload form seals the list
// ONCE under a fresh ephemeral key and stores, per cell, only a fixed-size
// wrap binding that key to the cell's keyword value key:
//
//	stored value = 'S' || wrap || nonce || sealed(kd, ids)
//	wrap         = PRF(valueKey, "emm-shared", nonce) ⊕ kd
//
// The nonce is drawn once per group; within a group every cell has a
// distinct value key, so no PRF pad ever repeats. Only a holder of the
// cell's value key recovers kd, which keeps the response-revealing
// semantics exactly: a search token still opens exactly its keyword's
// cells. A multimap holds one form only — BIEX's cross multimap this one
// (NewSharedServer), its global multimap whole-cell AEAD (NewServer) — and a
// cell of the other form is ErrCellFormat, never a second attempt.

const (
	// SharedWrapLen is the byte length of a shared-payload key wrap.
	SharedWrapLen = primitives.KeySize
	// SharedNonceLen is the byte length of a shared-payload group nonce.
	SharedNonceLen = 16
	// sharedMagic prefixes stored cell values in shared-payload form.
	sharedMagic = 0x53 // 'S'
	// sharedMinLen is the shortest well-formed shared-payload cell value.
	sharedMinLen = 1 + SharedWrapLen + SharedNonceLen + primitives.NonceSize + primitives.TagSize
)

// sharedLabel domain-separates the wrap PRF from address derivation.
var sharedLabel = []byte("emm-shared")

// AppendAddr reserves the next tail cell for w and returns its address
// plus the keyword's value key, for callers assembling shared-payload
// cells (WrapSharedKey + SealSharedIDs + server-side SharedValue).
func (c *Client) AppendAddr(namespace, w string) ([]byte, primitives.Key, error) {
	ak, vk := c.keywordKeys(namespace, w)
	i, err := c.nextTail(namespace, w)
	if err != nil {
		return nil, primitives.Key{}, err
	}
	return newAddrWalk(ak).appendAddr(nil, levelTail, i), vk, nil
}

// SealSharedIDs seals one identifier list under an ephemeral group key.
func SealSharedIDs(kd primitives.Key, ids []string) ([]byte, error) {
	aead, err := primitives.NewAEAD(kd)
	if err != nil {
		return nil, err
	}
	return sealIDs(aead, ids)
}

// sharedPad derives the wrap pads of one keyword's cells, PRF(valueKey,
// "emm-shared" || nonce), under a PRF keyed once; in and pad are its
// scratch, so opening a cell allocates neither.
type sharedPad struct {
	prf *primitives.PRFState
	in  [len("emm-shared") + SharedNonceLen]byte
	pad [primitives.PRFSize]byte
}

func newSharedPad(valueKey primitives.Key) *sharedPad {
	p := &sharedPad{prf: primitives.NewPRFState(valueKey)}
	copy(p.in[:], sharedLabel)
	return p
}

// xor returns k XOR the pad of nonce: a group key's wrap, or a wrap's group
// key. k is KeySize bytes and nonce SharedNonceLen.
func (p *sharedPad) xor(k, nonce []byte) primitives.Key {
	copy(p.in[len(sharedLabel):], nonce)
	p.prf.Append(p.pad[:0], p.in[:])
	var out primitives.Key
	subtle.XORBytes(out[:], p.pad[:primitives.KeySize], k)
	return out
}

// WrapSharedKey binds the group key kd to one cell's value key. nonce is
// SharedNonceLen bytes.
func WrapSharedKey(valueKey primitives.Key, nonce []byte, kd primitives.Key) []byte {
	wrap := newSharedPad(valueKey).xor(kd[:], nonce)
	return wrap[:]
}

// SharedValue assembles the stored cell value of a shared-payload cell.
func SharedValue(wrap, nonce, shared []byte) []byte {
	out := make([]byte, 0, 1+len(wrap)+len(nonce)+len(shared))
	out = append(out, sharedMagic)
	out = append(out, wrap...)
	out = append(out, nonce...)
	return append(out, shared...)
}

// openShared opens a shared-payload cell value with the keyword's pad state.
func openShared(p *sharedPad, blob []byte) ([]string, error) {
	if len(blob) < sharedMinLen || blob[0] != sharedMagic {
		return nil, ErrCellFormat
	}
	wrap := blob[1 : 1+SharedWrapLen]
	nonce := blob[1+SharedWrapLen : 1+SharedWrapLen+SharedNonceLen]
	aead, err := primitives.NewAEAD(p.xor(wrap, nonce))
	if err != nil {
		return nil, err
	}
	return openSealedIDs(aead, blob[1+SharedWrapLen+SharedNonceLen:])
}

// Append produces the encrypted tail cell for (w -> id) and advances the
// client counter atomically. The returned entry must be delivered to
// Server.Insert.
func (c *Client) Append(namespace, w, id string) (Entry, error) {
	ak, vk := c.keywordKeys(namespace, w)
	aead, err := aeadFor(vk)
	if err != nil {
		return Entry{}, err
	}
	val, err := sealIDs(aead, []string{id})
	if err != nil {
		return Entry{}, err
	}
	i, err := c.nextTail(namespace, w)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Addr: newAddrWalk(ak).appendAddr(nil, levelTail, i), Val: val}, nil
}

// BuildPacked seals a full identifier list for w into packed buckets,
// replacing all previous state for the keyword. It returns the bucket
// entries plus the number of now-stale cells the server should drop
// (callers pass the old counts to Server.Rebuild).
func (c *Client) BuildPacked(namespace, w string, ids []string) (entries []Entry, old, nu Counts, err error) {
	old, err = c.counts(namespace, w)
	if err != nil {
		return nil, Counts{}, Counts{}, err
	}
	ak, vk := c.keywordKeys(namespace, w)
	aead, err := aeadFor(vk)
	if err != nil {
		return nil, Counts{}, Counts{}, err
	}
	walk := newAddrWalk(ak)
	for j := 0; j*BucketCapacity < len(ids) || (j == 0 && len(ids) == 0); j++ {
		loEnd := j * BucketCapacity
		hiEnd := loEnd + BucketCapacity
		if hiEnd > len(ids) {
			hiEnd = len(ids)
		}
		val, err := sealIDs(aead, ids[loEnd:hiEnd])
		if err != nil {
			return nil, Counts{}, Counts{}, err
		}
		entries = append(entries, Entry{Addr: walk.appendAddr(nil, levelPacked, uint64(j)), Val: val})
		if hiEnd == len(ids) {
			break
		}
	}
	nu = Counts{Packed: uint64(len(entries))}
	if err := c.setCounts(namespace, w, nu); err != nil {
		return nil, Counts{}, Counts{}, err
	}
	return entries, old, nu, nil
}

// Token builds the search token for w.
func (c *Client) Token(namespace, w string) (SearchToken, error) {
	counts, err := c.counts(namespace, w)
	if err != nil {
		return SearchToken{}, err
	}
	ak, vk := c.keywordKeys(namespace, w)
	return SearchToken{AddrKey: ak[:], ValueKey: vk[:], Counts: counts}, nil
}

// StaleAddrs enumerates the server addresses occupied by the given counts
// for w; Rebuild uses it to garbage-collect replaced cells.
func (c *Client) StaleAddrs(namespace, w string, counts Counts) [][]byte {
	walk := newAddrWalk(c.addrKey(namespace, w))
	addrs := make([][]byte, 0, counts.Packed+counts.Tail)
	for j := uint64(0); j < counts.Packed; j++ {
		addrs = append(addrs, walk.appendAddr(nil, levelPacked, j))
	}
	for i := uint64(0); i < counts.Tail; i++ {
		addrs = append(addrs, walk.appendAddr(nil, levelTail, i))
	}
	return addrs
}

// Server is the cloud half of the EMM: an opaque cell store holding cells
// of one form.
type Server struct {
	store  *kvstore.Store
	prefix []byte // "emm/<namespace>/": every cell key is prefix || address
	shared bool   // cells are shared-payload values, not whole-cell AEAD

	probes, opens atomic.Uint64
}

// NewServer builds a server over store whose cells are whole-cell AEAD
// under the keyword's value key (Client.Append, Client.BuildPacked).
// namespace isolates multiple EMMs (e.g. the BIEX global and cross
// multimaps) in one store.
func NewServer(store *kvstore.Store, namespace string) *Server {
	return &Server{store: store, prefix: []byte("emm/" + namespace + "/")}
}

// NewSharedServer builds a server over store whose cells are shared-payload
// values (Client.AppendAddr + WrapSharedKey + SharedValue).
func NewSharedServer(store *kvstore.Store, namespace string) *Server {
	s := NewServer(store, namespace)
	s.shared = true
	return s
}

// ServerStats counts the work of every Search so far.
type ServerStats struct {
	Probes uint64 // cell addresses looked up in the store
	Opens  uint64 // cells found and decrypted
}

// Stats returns the server's search counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{Probes: s.probes.Load(), Opens: s.opens.Load()}
}

func (s *Server) cellKey(addr []byte) []byte {
	return append(s.prefix[:len(s.prefix):len(s.prefix)], addr...)
}

// Insert stores encrypted cells.
func (s *Server) Insert(entries []Entry) error {
	for _, e := range entries {
		if err := s.store.Set(s.cellKey(e.Addr), e.Val); err != nil {
			return fmt.Errorf("emm: inserting cell: %w", err)
		}
	}
	return nil
}

// Delete drops the cells at the given addresses (used by rebuilds).
func (s *Server) Delete(addrs [][]byte) error {
	for _, a := range addrs {
		if err := s.store.Del(s.cellKey(a)); err != nil {
			return fmt.Errorf("emm: deleting cell: %w", err)
		}
	}
	return nil
}

// Search resolves a token to the identifier list. Missing cells are
// tolerated (they may have been garbage-collected mid-rebuild, or live on
// another shard's replica of a partitioned index); corrupt cells and cells
// of the other form are an error.
func (s *Server) Search(t SearchToken) ([]string, error) {
	ak, err := primitives.KeyFromBytes(t.AddrKey)
	if err != nil {
		return nil, ErrBadToken
	}
	vk, err := primitives.KeyFromBytes(t.ValueKey)
	if err != nil {
		return nil, ErrBadToken
	}
	ids, probes, opens, err := s.scan(ak, vk, t.Counts)
	s.probes.Add(probes)
	s.opens.Add(opens)
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// scan probes every address the counts enumerate and opens the cells it
// finds. The walk owns everything a probe needs — the keyed PRF, its input
// and the cell-key buffer the address is derived straight into — so a probe
// that finds nothing allocates nothing.
func (s *Server) scan(ak, vk primitives.Key, counts Counts) (ids []string, probes, opens uint64, err error) {
	walk := newAddrWalk(ak)
	key := append(make([]byte, 0, len(s.prefix)+primitives.PRFSize), s.prefix...)
	var open func(val []byte) ([]string, error) // built at the first cell found
	levels := [2]struct {
		tag byte
		n   uint64
	}{{levelPacked, counts.Packed}, {levelTail, counts.Tail}}
	for _, level := range levels {
		for i := uint64(0); i < level.n; i++ {
			probes++
			key = walk.appendAddr(key[:len(s.prefix)], level.tag, i)
			val, ok, err := s.store.Get(key)
			if err != nil {
				return nil, probes, opens, err
			}
			if !ok {
				continue
			}
			if open == nil {
				if open, err = s.opener(vk); err != nil {
					return nil, probes, opens, err
				}
			}
			opens++
			cell, err := open(val)
			if err != nil {
				return nil, probes, opens, fmt.Errorf("emm: opening cell: %w", err)
			}
			ids = append(ids, cell...)
		}
	}
	return ids, probes, opens, nil
}

// opener returns the function that opens this multimap's cells under one
// keyword's value key: the key's cached AEAD, or a shared-payload pad state.
func (s *Server) opener(vk primitives.Key) (func([]byte) ([]string, error), error) {
	if s.shared {
		pad := newSharedPad(vk)
		return func(val []byte) ([]string, error) { return openShared(pad, val) }, nil
	}
	aead, err := aeadFor(vk)
	if err != nil {
		return nil, err
	}
	return func(val []byte) ([]string, error) {
		ids, err := openSealedIDs(aead, val)
		if errors.Is(err, primitives.ErrAuthentication) && len(val) >= sharedMinLen && val[0] == sharedMagic {
			return nil, ErrCellFormat
		}
		return ids, err
	}, nil
}
