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
	"errors"
	"fmt"
	"sync"

	"datablinder/internal/crypto/keycache"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/wirefmt"
)

// BucketCapacity is the number of identifiers per packed bucket.
const BucketCapacity = 8

// Errors returned by this package.
var ErrBadToken = errors.New("emm: malformed search token")

// Counts is the client-side per-keyword state: how many packed buckets and
// how many tail entries exist for the keyword.
type Counts struct {
	Packed uint64 `json:"packed"`
	Tail   uint64 `json:"tail"`
}

// State persists the client's per-keyword counters. Implementations must
// be safe for concurrent use; NextTail must be atomic so concurrent
// appends to one keyword never reuse a cell index.
type State interface {
	// Counts returns the counters for keyword w (zero value if absent).
	Counts(namespace, w string) (Counts, error)
	// NextTail atomically reserves and returns the next tail index for w.
	NextTail(namespace, w string) (uint64, error)
	// SetCounts stores the counters for keyword w (rebuilds/restores).
	SetCounts(namespace, w string, c Counts) error
}

// MemState is an in-memory State for tests and ephemeral gateways.
type MemState struct {
	mu sync.RWMutex
	m  map[string]Counts
}

// NewMemState returns an empty MemState.
func NewMemState() *MemState { return &MemState{m: make(map[string]Counts)} }

// Counts implements State.
func (s *MemState) Counts(namespace, w string) (Counts, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[namespace+"\x00"+w], nil
}

// NextTail implements State.
func (s *MemState) NextTail(namespace, w string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := namespace + "\x00" + w
	c := s.m[k]
	i := c.Tail
	c.Tail++
	s.m[k] = c
	return i, nil
}

// SetCounts implements State.
func (s *MemState) SetCounts(namespace, w string, c Counts) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[namespace+"\x00"+w] = c
	return nil
}

// KVState persists counters in a kvstore (the gateway's local Redis in the
// paper's deployment).
type KVState struct {
	store *kvstore.Store
}

// NewKVState wraps store.
func NewKVState(store *kvstore.Store) *KVState { return &KVState{store: store} }

func (s *KVState) tailKey(namespace, w string) []byte {
	return []byte("emmtail/" + namespace + "\x00" + w)
}

func (s *KVState) packedKey(namespace, w string) []byte {
	return []byte("emmpacked/" + namespace + "\x00" + w)
}

// Counts implements State.
func (s *KVState) Counts(namespace, w string) (Counts, error) {
	tail, err := s.store.Counter(s.tailKey(namespace, w))
	if err != nil {
		return Counts{}, fmt.Errorf("emm: loading tail state: %w", err)
	}
	packed, err := s.store.Counter(s.packedKey(namespace, w))
	if err != nil {
		return Counts{}, fmt.Errorf("emm: loading packed state: %w", err)
	}
	return Counts{Packed: uint64(packed), Tail: uint64(tail)}, nil
}

// NextTail implements State atomically via the store's counter primitive.
func (s *KVState) NextTail(namespace, w string) (uint64, error) {
	c, err := s.store.Incr(s.tailKey(namespace, w), 1)
	if err != nil {
		return 0, fmt.Errorf("emm: reserving tail index: %w", err)
	}
	return uint64(c - 1), nil
}

// SetCounts implements State.
func (s *KVState) SetCounts(namespace, w string, c Counts) error {
	cur, err := s.Counts(namespace, w)
	if err != nil {
		return err
	}
	if _, err := s.store.Incr(s.tailKey(namespace, w), int64(c.Tail)-int64(cur.Tail)); err != nil {
		return fmt.Errorf("emm: storing tail state: %w", err)
	}
	if _, err := s.store.Incr(s.packedKey(namespace, w), int64(c.Packed)-int64(cur.Packed)); err != nil {
		return fmt.Errorf("emm: storing packed state: %w", err)
	}
	return nil
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

// Client is the gateway half of the EMM. It is safe for concurrent use
// given a concurrency-safe State.
type Client struct {
	keyAddr primitives.Key // derives per-keyword address keys
	keyVal  primitives.Key // derives per-keyword value keys
	state   State
	kwKeys  *keycache.Cache[string, [2]primitives.Key] // (addr, value) pairs
}

// NewClient derives the EMM client keys from key. state persists the
// per-keyword counters.
func NewClient(key primitives.Key, state State) *Client {
	return &Client{
		keyAddr: primitives.PRFKey(key, []byte("emm-addr")),
		keyVal:  primitives.PRFKey(key, []byte("emm-val")),
		state:   state,
		kwKeys:  keycache.New[string, [2]primitives.Key](keycache.DefaultSize),
	}
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

// tailAddr computes the address of tail cell i.
func tailAddr(addrKey primitives.Key, i uint64) []byte {
	return primitives.PRF(addrKey, []byte("t"), primitives.Uint64Bytes(i))
}

// packedAddr computes the address of packed bucket j.
func packedAddr(addrKey primitives.Key, j uint64) []byte {
	return primitives.PRF(addrKey, []byte("p"), primitives.Uint64Bytes(j))
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

func openIDs(valueKey primitives.Key, blob []byte) ([]string, error) {
	if ids, ok := openShared(valueKey, blob); ok {
		return ids, nil
	}
	aead, err := aeadFor(valueKey)
	if err != nil {
		return nil, err
	}
	return openSealedIDs(aead, blob)
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
// cells. openIDs recognizes the magic prefix and falls back to the legacy
// whole-cell AEAD on authentication failure, so mixed-era indexes resolve.

const (
	// SharedWrapLen is the byte length of a shared-payload key wrap.
	SharedWrapLen = primitives.KeySize
	// SharedNonceLen is the byte length of a shared-payload group nonce.
	SharedNonceLen = 16
	// sharedMagic prefixes stored cell values in shared-payload form.
	sharedMagic = 0x53 // 'S'
)

// sharedLabel domain-separates the wrap PRF from address derivation.
var sharedLabel = []byte("emm-shared")

// AppendAddr reserves the next tail cell for w and returns its address
// plus the keyword's value key, for callers assembling shared-payload
// cells (WrapSharedKey + SealSharedIDs + server-side SharedValue).
func (c *Client) AppendAddr(namespace, w string) ([]byte, primitives.Key, error) {
	ak, vk := c.keywordKeys(namespace, w)
	i, err := c.state.NextTail(namespace, w)
	if err != nil {
		return nil, primitives.Key{}, err
	}
	return tailAddr(ak, i), vk, nil
}

// SealSharedIDs seals one identifier list under an ephemeral group key.
func SealSharedIDs(kd primitives.Key, ids []string) ([]byte, error) {
	aead, err := primitives.NewAEAD(kd)
	if err != nil {
		return nil, err
	}
	return sealIDs(aead, ids)
}

// WrapSharedKey binds the group key kd to one cell's value key.
func WrapSharedKey(valueKey primitives.Key, nonce []byte, kd primitives.Key) []byte {
	pad := primitives.PRF(valueKey, sharedLabel, nonce)
	return primitives.XOR(pad[:primitives.KeySize], kd[:])
}

// SharedValue assembles the stored cell value of a shared-payload cell.
func SharedValue(wrap, nonce, shared []byte) []byte {
	out := make([]byte, 0, 1+len(wrap)+len(nonce)+len(shared))
	out = append(out, sharedMagic)
	out = append(out, wrap...)
	out = append(out, nonce...)
	return append(out, shared...)
}

// openShared attempts to open blob as a shared-payload cell; ok=false
// means "not that form" (wrong magic, short, or failed authentication)
// and the caller should try the legacy form.
func openShared(valueKey primitives.Key, blob []byte) ([]string, bool) {
	minLen := 1 + SharedWrapLen + SharedNonceLen + primitives.NonceSize + primitives.TagSize
	if len(blob) < minLen || blob[0] != sharedMagic {
		return nil, false
	}
	wrap := blob[1 : 1+SharedWrapLen]
	nonce := blob[1+SharedWrapLen : 1+SharedWrapLen+SharedNonceLen]
	shared := blob[1+SharedWrapLen+SharedNonceLen:]
	pad := primitives.PRF(valueKey, sharedLabel, nonce)
	kd, err := primitives.KeyFromBytes(primitives.XOR(pad[:primitives.KeySize], wrap))
	if err != nil {
		return nil, false
	}
	aead, err := primitives.NewAEAD(kd)
	if err != nil {
		return nil, false
	}
	ids, err := openSealedIDs(aead, shared)
	return ids, err == nil
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
	i, err := c.state.NextTail(namespace, w)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Addr: tailAddr(ak, i), Val: val}, nil
}

// BuildPacked seals a full identifier list for w into packed buckets,
// replacing all previous state for the keyword. It returns the bucket
// entries plus the number of now-stale cells the server should drop
// (callers pass the old counts to Server.Rebuild).
func (c *Client) BuildPacked(namespace, w string, ids []string) (entries []Entry, old, nu Counts, err error) {
	old, err = c.state.Counts(namespace, w)
	if err != nil {
		return nil, Counts{}, Counts{}, err
	}
	ak, vk := c.keywordKeys(namespace, w)
	aead, err := aeadFor(vk)
	if err != nil {
		return nil, Counts{}, Counts{}, err
	}
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
		entries = append(entries, Entry{Addr: packedAddr(ak, uint64(j)), Val: val})
		if hiEnd == len(ids) {
			break
		}
	}
	nu = Counts{Packed: uint64(len(entries))}
	if err := c.state.SetCounts(namespace, w, nu); err != nil {
		return nil, Counts{}, Counts{}, err
	}
	return entries, old, nu, nil
}

// Token builds the search token for w.
func (c *Client) Token(namespace, w string) (SearchToken, error) {
	counts, err := c.state.Counts(namespace, w)
	if err != nil {
		return SearchToken{}, err
	}
	ak, vk := c.keywordKeys(namespace, w)
	return SearchToken{AddrKey: ak[:], ValueKey: vk[:], Counts: counts}, nil
}

// StaleAddrs enumerates the server addresses occupied by the given counts
// for w; Rebuild uses it to garbage-collect replaced cells.
func (c *Client) StaleAddrs(namespace, w string, counts Counts) [][]byte {
	ak := c.addrKey(namespace, w)
	addrs := make([][]byte, 0, counts.Packed+counts.Tail)
	for j := uint64(0); j < counts.Packed; j++ {
		addrs = append(addrs, packedAddr(ak, j))
	}
	for i := uint64(0); i < counts.Tail; i++ {
		addrs = append(addrs, tailAddr(ak, i))
	}
	return addrs
}

// Server is the cloud half of the EMM: an opaque cell store.
type Server struct {
	store     *kvstore.Store
	namespace string
}

// NewServer builds a server over store. namespace isolates multiple EMMs
// (e.g. the BIEX global and cross multimaps) in one store.
func NewServer(store *kvstore.Store, namespace string) *Server {
	return &Server{store: store, namespace: namespace}
}

func (s *Server) cellKey(addr []byte) []byte {
	return append([]byte("emm/"+s.namespace+"/"), addr...)
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
// tolerated (they may have been garbage-collected mid-rebuild); corrupt
// cells are an error.
func (s *Server) Search(t SearchToken) ([]string, error) {
	ak, err := primitives.KeyFromBytes(t.AddrKey)
	if err != nil {
		return nil, ErrBadToken
	}
	vk, err := primitives.KeyFromBytes(t.ValueKey)
	if err != nil {
		return nil, ErrBadToken
	}
	var ids []string
	fetch := func(addr []byte) error {
		val, ok, err := s.store.Get(s.cellKey(addr))
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		cell, err := openIDs(vk, val)
		if err != nil {
			return fmt.Errorf("emm: opening cell: %w", err)
		}
		ids = append(ids, cell...)
		return nil
	}
	for j := uint64(0); j < t.Counts.Packed; j++ {
		if err := fetch(packedAddr(ak, j)); err != nil {
			return nil, err
		}
	}
	for i := uint64(0); i < t.Counts.Tail; i++ {
		if err := fetch(tailAddr(ak, i)); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

var (
	_ State = (*MemState)(nil)
	_ State = (*KVState)(nil)
)
