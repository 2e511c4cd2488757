// Package sophos implements the Σoφoς (Sophos) forward-private searchable
// encryption scheme of Bost (CCS 2016). Forward privacy means update
// tokens reveal nothing about previously searched keywords: each update's
// address is derived from a fresh search-token state obtained by walking a
// trapdoor permutation *backwards* with the client's private key; at
// search time the server walks *forwards* with the public key, so old
// states never have to be re-sent.
//
// The trapdoor permutation is raw RSA over Z_N* (x^d for the client's
// inverse step, x^e for the server's forward step), exactly as in Bost's
// construction. The paper's Table 2 lists Sophos at protection class 2
// (Identifiers) with "Key management" as its integration challenge — the
// gateway must hold the RSA private key and per-keyword state.
package sophos

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"datablinder/internal/conc"
	"datablinder/internal/crypto/keycache"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
)

// stBytes is the fixed serialized width of a TDP state (2048-bit modulus).
const stBytes = 256

// RSABits is the TDP modulus size.
const RSABits = 2048

// idSlot is the fixed plaintext width of a value cell: 1 length byte +
// up to MaxIDLen id bytes.
const (
	// MaxIDLen is the longest supported document identifier.
	MaxIDLen = 63
	idSlot   = 1 + MaxIDLen
)

// Errors returned by this package.
var (
	ErrIDTooLong = errors.New("sophos: document id exceeds 63 bytes")
	ErrBadCell   = errors.New("sophos: malformed server cell")
	ErrBadToken  = errors.New("sophos: malformed search token")
)

// Entry is one encrypted update cell.
type Entry struct {
	Addr []byte `json:"addr"`
	Val  []byte `json:"val"`
}

// SearchToken lets the server walk the TDP chain forwards.
type SearchToken struct {
	// KeywordKey keys the H1/H2 hashes for this keyword.
	KeywordKey []byte `json:"keyword_key"`
	// ST is the newest state.
	ST []byte `json:"st"`
	// Count is the number of updates (chain length).
	Count uint64 `json:"count"`
}

// Client is the gateway half of Sophos. It holds the RSA trapdoor.
// Inserts are serialized per keyword (the TDP state chain is inherently
// sequential) via striped locks, so the client is safe for concurrent use.
type Client struct {
	key    primitives.Key
	rsa    *rsa.PrivateKey
	store  *kvstore.Store // the gateway store: one chain record per keyword
	locks  conc.Stripes
	kwKeys *keycache.Cache[string, primitives.Key]
}

// NewClient derives the Sophos client; store keeps the per-keyword chain
// records. Generating the RSA trapdoor takes noticeable time; reuse
// clients.
func NewClient(key primitives.Key, store *kvstore.Store) (*Client, error) {
	pk, err := rsa.GenerateKey(rand.Reader, RSABits)
	if err != nil {
		return nil, fmt.Errorf("sophos: generating TDP: %w", err)
	}
	return NewClientWithTDP(key, store, pk)
}

// NewClientWithTDP builds a client over an existing RSA trapdoor (e.g.
// loaded from the key management system).
func NewClientWithTDP(key primitives.Key, store *kvstore.Store, pk *rsa.PrivateKey) (*Client, error) {
	if pk.N.BitLen() > RSABits {
		return nil, fmt.Errorf("sophos: TDP modulus %d bits exceeds %d", pk.N.BitLen(), RSABits)
	}
	return &Client{
		key:    primitives.PRFKey(key, []byte("sophos")),
		rsa:    pk,
		store:  store,
		kwKeys: keycache.New[string, primitives.Key](keycache.DefaultSize),
	}, nil
}

// PublicKey returns the TDP public key material for the server.
type PublicKey struct {
	N []byte `json:"n"`
	E int    `json:"e"`
}

// PublicKey exports the server half of the trapdoor.
func (c *Client) PublicKey() PublicKey {
	return PublicKey{N: c.rsa.N.Bytes(), E: c.rsa.E}
}

// TDP exposes the RSA trapdoor so callers can persist it (key management
// integration); treat the returned key as secret material.
func (c *Client) TDP() *rsa.PrivateKey { return c.rsa }

func (c *Client) keywordKey(namespace, w string) primitives.Key {
	ck := namespace + "\x00" + w
	if k, ok := c.kwKeys.Get(ck); ok {
		return k
	}
	k := primitives.PRFKey(c.key, []byte(namespace), []byte{0}, []byte(w))
	c.kwKeys.Put(ck, k)
	return k
}

// inverse applies π⁻¹ (x^d mod N).
func (c *Client) inverse(st []byte) []byte {
	x := new(big.Int).SetBytes(st)
	y := new(big.Int).Exp(x, c.rsa.D, c.rsa.N)
	out := make([]byte, stBytes)
	y.FillBytes(out)
	return out
}

// forward applies π (x^e mod N) — the server-side step.
func forward(pk PublicKey, st []byte) []byte {
	n := new(big.Int).SetBytes(pk.N)
	x := new(big.Int).SetBytes(st)
	y := new(big.Int).Exp(x, big.NewInt(int64(pk.E)), n)
	out := make([]byte, stBytes)
	y.FillBytes(out)
	return out
}

// chainPRF derives one keyword's cell addresses and pads along its TDP
// chain under a PRF keyed once with the keyword key, which so never enters
// the HMAC pool. The PRF inputs are 1 || st for an address and
// 2 || st || blk for pad block blk (8 bytes big-endian).
type chainPRF struct {
	prf *primitives.PRFState
	in  []byte
}

func newChainPRF(kw primitives.Key) *chainPRF {
	return &chainPRF{prf: primitives.NewPRFState(kw), in: make([]byte, 0, 1+stBytes+8)}
}

// h1 returns the address of the cell at chain state st.
func (d *chainPRF) h1(st []byte) []byte {
	d.in = append(append(d.in[:0], 1), st...)
	return d.prf.Append(nil, d.in)
}

// h2 returns the idSlot-byte pad of the cell at chain state st.
func (d *chainPRF) h2(st []byte) []byte {
	d.in = append(append(d.in[:0], 2), st...)
	p := make([]byte, 0, idSlot+primitives.PRFSize)
	for blk := uint64(0); len(p) < idSlot; blk++ {
		p = d.prf.Append(p, binary.BigEndian.AppendUint64(d.in, blk))
	}
	return p[:idSlot]
}

func encodeCell(id string) ([]byte, error) {
	if len(id) > MaxIDLen {
		return nil, ErrIDTooLong
	}
	cell := make([]byte, idSlot)
	cell[0] = byte(len(id))
	copy(cell[1:], id)
	return cell, nil
}

func decodeCell(cell []byte) (string, error) {
	if len(cell) != idSlot || int(cell[0]) > MaxIDLen {
		return "", ErrBadCell
	}
	return string(cell[1 : 1+cell[0]]), nil
}

// chain is the client's record of one keyword: the latest TDP state and
// the number of updates, stored as JSON under chainKey.
type chain struct {
	ST    []byte `json:"st"` // current state, fixed width
	Count uint64 `json:"count"`
}

func chainKey(namespace, w string) []byte {
	return []byte("sophosstate/" + namespace + "\x00" + w)
}

// loadChain returns keyword w's record and whether it exists.
func (c *Client) loadChain(namespace, w string) (chain, bool, error) {
	raw, ok, err := c.store.Get(chainKey(namespace, w))
	if err != nil || !ok {
		return chain{}, false, err
	}
	var ks chain
	if err := json.Unmarshal(raw, &ks); err != nil {
		return chain{}, false, fmt.Errorf("sophos: decoding state: %w", err)
	}
	return ks, true, nil
}

// Insert produces the encrypted cell adding id under w. Sophos has no
// native deletion; the middleware layers a revocation set above it.
func (c *Client) Insert(namespace, w, id string) (Entry, error) {
	mu := c.locks.For(namespace, w)
	mu.Lock()
	defer mu.Unlock()
	ks, ok, err := c.loadChain(namespace, w)
	if err != nil {
		return Entry{}, err
	}
	if !ok {
		// First update: sample ST_0 uniformly from Z_N*.
		st0, err := rand.Int(rand.Reader, c.rsa.N)
		if err != nil {
			return Entry{}, fmt.Errorf("sophos: sampling ST0: %w", err)
		}
		buf := make([]byte, stBytes)
		st0.FillBytes(buf)
		ks = chain{ST: buf, Count: 0}
	} else {
		// Walk backwards: ST_c = π⁻¹(ST_{c-1}).
		ks.ST = c.inverse(ks.ST)
	}
	ks.Count++

	cell, err := encodeCell(id)
	if err != nil {
		return Entry{}, err
	}
	d := newChainPRF(c.keywordKey(namespace, w))
	e := Entry{
		Addr: d.h1(ks.ST),
		Val:  primitives.XOR(cell, d.h2(ks.ST)),
	}
	raw, err := json.Marshal(ks)
	if err != nil {
		return Entry{}, err
	}
	if err := c.store.Set(chainKey(namespace, w), raw); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Token builds the search token for w. ok is false when w has never been
// inserted (the search trivially returns nothing).
func (c *Client) Token(namespace, w string) (SearchToken, bool, error) {
	ks, ok, err := c.loadChain(namespace, w)
	if err != nil || !ok {
		return SearchToken{}, false, err
	}
	kw := c.keywordKey(namespace, w)
	return SearchToken{KeywordKey: kw[:], ST: ks.ST, Count: ks.Count}, true, nil
}

// Server is the cloud half of Sophos.
type Server struct {
	store     *kvstore.Store
	namespace string
	pk        PublicKey
}

// NewServer builds a server over store with the client's TDP public key.
func NewServer(store *kvstore.Store, namespace string, pk PublicKey) *Server {
	return &Server{store: store, namespace: namespace, pk: pk}
}

func (s *Server) cellKey(addr []byte) []byte {
	return append([]byte("sophos/"+s.namespace+"/"), addr...)
}

// Insert stores encrypted cells.
func (s *Server) Insert(entries []Entry) error {
	for _, e := range entries {
		if err := s.store.Set(s.cellKey(e.Addr), e.Val); err != nil {
			return fmt.Errorf("sophos: inserting cell: %w", err)
		}
	}
	return nil
}

// Search walks the TDP chain from the newest state to ST_1, decrypting the
// cell at each state, and returns the ids. Missing cells are tolerated.
func (s *Server) Search(t SearchToken) ([]string, error) {
	kw, err := primitives.KeyFromBytes(t.KeywordKey)
	if err != nil || len(t.ST) != stBytes {
		return nil, ErrBadToken
	}
	d := newChainPRF(kw)
	ids := make([]string, 0, t.Count)
	st := t.ST
	for i := t.Count; i > 0; i-- {
		addr := d.h1(st)
		val, ok, err := s.store.Get(s.cellKey(addr))
		if err != nil {
			return nil, err
		}
		if ok {
			if len(val) != idSlot {
				return nil, ErrBadCell
			}
			id, err := decodeCell(primitives.XOR(val, d.h2(st)))
			if err != nil {
				return nil, err
			}
			ids = append(ids, id)
		}
		if i > 1 {
			st = forward(s.pk, st)
		}
	}
	return ids, nil
}
