// Package mitra implements the Mitra dynamic symmetric searchable
// encryption scheme of Chamani, Papadopoulos, Papamanthou and Jalili
// (CCS 2018): forward AND backward private, with all decryption performed
// at the client (the cloud only ever sees pseudo-random addresses and
// pads), which is why its protection class in the paper's Table 2 is 2
// (Identifiers leakage) and its listed challenge is "Local storage" — the
// client keeps a counter per keyword.
//
// Protocol sketch:
//
//	Update(w, id, op): c := ctr[w]++ ;
//	    addr = PRF(K_w, c || 0) ; val = (op||id) XOR PRF(K_w, c || 1)
//	Search(w): client sends all addresses addr_1..addr_c; the server
//	    returns the stored values; the client decrypts and cancels
//	    deletions against additions.
package mitra

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"datablinder/internal/crypto/keycache"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
)

// Op marks an update as addition or deletion.
type Op byte

// Update operations.
const (
	OpAdd Op = 1
	OpDel Op = 2
)

// idSlot is the fixed plaintext width of an encrypted (op, id) cell:
// 1 op byte + 1 length byte + up to MaxIDLen id bytes.
const (
	// MaxIDLen is the longest supported document identifier.
	MaxIDLen = 62
	idSlot   = 2 + MaxIDLen
)

// Errors returned by this package.
var (
	ErrIDTooLong = errors.New("mitra: document id exceeds 62 bytes")
	ErrBadCell   = errors.New("mitra: malformed server cell")
)

// Entry is one encrypted update cell.
type Entry struct {
	Addr []byte `json:"addr"`
	Val  []byte `json:"val"`
}

// SearchRequest carries the addresses of every update cell for the queried
// keyword. The server learns only which cells are touched (access pattern).
type SearchRequest struct {
	Addrs [][]byte `json:"addrs"`
}

// Client is the gateway half of Mitra.
type Client struct {
	key    primitives.Key
	store  *kvstore.Store // the gateway store: one counter per keyword
	kwKeys *keycache.Cache[string, primitives.Key]
}

// NewClient derives the client from key; store keeps the keyword counters.
func NewClient(key primitives.Key, store *kvstore.Store) *Client {
	return &Client{
		key:    primitives.PRFKey(key, []byte("mitra")),
		store:  store,
		kwKeys: keycache.New[string, primitives.Key](keycache.DefaultSize),
	}
}

// counterKey names keyword w's counter: the number of updates issued for
// it, and so the index of its next cell.
func counterKey(namespace, w string) []byte {
	return []byte("mitractr/" + namespace + "\x00" + w)
}

func (c *Client) keywordKey(namespace, w string) primitives.Key {
	ck := namespace + "\x00" + w
	if k, ok := c.kwKeys.Get(ck); ok {
		return k
	}
	k := primitives.PRFKey(c.key, []byte(namespace), []byte{0}, []byte(w))
	c.kwKeys.Put(ck, k)
	return k
}

// cellPRF derives one keyword's cell addresses and pads under a PRF keyed
// once with the keyword key: a search over n cells keys HMAC once, not 3n
// times, and the per-keyword key never enters the HMAC pool. It owns the
// PRF input and pad buffers, so a search allocates them once, not per cell.
// The PRF inputs are i || 0 for an address and i || 1 || blk for pad block
// blk (all integers 8 bytes big-endian).
type cellPRF struct {
	prf *primitives.PRFState
	in  [17]byte
	pad [idSlot]byte
}

func newCellPRF(kw primitives.Key) *cellPRF {
	return &cellPRF{prf: primitives.NewPRFState(kw)}
}

// appendAddr appends the address of update i to dst.
func (d *cellPRF) appendAddr(dst []byte, i uint64) []byte {
	binary.BigEndian.PutUint64(d.in[:8], i)
	d.in[8] = 0
	return d.prf.Append(dst, d.in[:9])
}

// padFor derives the idSlot-byte encryption pad for update i. The result
// is the receiver's own buffer, overwritten by the next call.
func (d *cellPRF) padFor(i uint64) []byte {
	binary.BigEndian.PutUint64(d.in[:8], i)
	d.in[8] = 1
	p := d.pad[:0]
	for blk := uint64(0); len(p) < idSlot; blk++ {
		binary.BigEndian.PutUint64(d.in[9:], blk)
		p = d.prf.Append(p, d.in[:])
	}
	return p
}

func encodeCell(op Op, id string) ([]byte, error) {
	if len(id) > MaxIDLen {
		return nil, ErrIDTooLong
	}
	cell := make([]byte, idSlot)
	cell[0] = byte(op)
	cell[1] = byte(len(id))
	copy(cell[2:], id)
	return cell, nil
}

// decodeCell splits a decrypted cell; the id aliases cell.
func decodeCell(cell []byte) (Op, []byte, error) {
	if len(cell) != idSlot {
		return 0, nil, ErrBadCell
	}
	op := Op(cell[0])
	if op != OpAdd && op != OpDel {
		return 0, nil, ErrBadCell
	}
	n := int(cell[1])
	if n > MaxIDLen {
		return 0, nil, ErrBadCell
	}
	return op, cell[2 : 2+n], nil
}

// Update produces the encrypted cell for an add/delete of id under w.
// The cell index is reserved atomically, so concurrent updates to one
// keyword never collide.
func (c *Client) Update(namespace, w string, op Op, id string) (Entry, error) {
	cell, err := encodeCell(op, id)
	if err != nil {
		return Entry{}, err
	}
	n, err := c.store.Incr(counterKey(namespace, w), 1)
	if err != nil {
		return Entry{}, err
	}
	ctr := uint64(n - 1)
	d := newCellPRF(c.keywordKey(namespace, w))
	subtle.XORBytes(cell, cell, d.padFor(ctr))
	return Entry{Addr: d.appendAddr(nil, ctr), Val: cell}, nil
}

// SearchRequest enumerates the cell addresses for w. An empty request
// (zero counter) means the keyword has never been updated.
func (c *Client) SearchRequest(namespace, w string) (SearchRequest, error) {
	ctr, err := c.store.Counter(counterKey(namespace, w))
	if err != nil {
		return SearchRequest{}, err
	}
	d := newCellPRF(c.keywordKey(namespace, w))
	req := SearchRequest{Addrs: make([][]byte, ctr)}
	slab := make([]byte, 0, ctr*primitives.PRFSize)
	for i := range req.Addrs {
		slab = d.appendAddr(slab, uint64(i))
		req.Addrs[i] = slab[len(slab)-primitives.PRFSize : len(slab) : len(slab)]
	}
	return req, nil
}

// Resolve decrypts the server's response and cancels deletions: an id is
// in the result iff its additions outnumber its deletions (each add
// contributes one live reference, each delete removes one). Results keep
// the order in which ids were first added.
func (c *Client) Resolve(namespace, w string, vals [][]byte) ([]string, error) {
	type ref struct {
		id    string
		live  int
		added bool
	}
	d := newCellPRF(c.keywordKey(namespace, w))
	refs := make([]ref, 0, len(vals))
	index := make(map[string]int, len(vals)) // id -> position in refs
	order := make([]int, 0, len(vals))       // refs positions, by first add
	for i, v := range vals {
		if v == nil {
			continue // cell missing server-side; tolerate
		}
		if len(v) != idSlot {
			return nil, ErrBadCell
		}
		cell := d.padFor(uint64(i))
		subtle.XORBytes(cell, cell, v)
		op, id, err := decodeCell(cell)
		if err != nil {
			return nil, err
		}
		k, ok := index[string(id)]
		if !ok {
			k = len(refs)
			refs = append(refs, ref{id: string(id)})
			index[refs[k].id] = k
		}
		if op == OpDel {
			refs[k].live--
			continue
		}
		refs[k].live++
		if !refs[k].added {
			refs[k].added = true
			order = append(order, k)
		}
	}
	out := make([]string, 0, len(order))
	for _, k := range order {
		if refs[k].live > 0 {
			out = append(out, refs[k].id)
		}
	}
	return out, nil
}

// Server is the cloud half of Mitra: a write-once cell store.
type Server struct {
	store     *kvstore.Store
	namespace string
}

// NewServer builds a server over store.
func NewServer(store *kvstore.Store, namespace string) *Server {
	return &Server{store: store, namespace: namespace}
}

// keyPrefix returns a buffer holding the cell-key prefix
// "mitra/<namespace>/" with room for one address after it, and the
// prefix's length. A cell's key is append(key[:prefix], addr...): a call
// over many cells builds the prefix once and reuses the buffer, since the
// store copies every key it keeps.
func (s *Server) keyPrefix() (key []byte, prefix int) {
	key = make([]byte, 0, len("mitra/")+len(s.namespace)+1+primitives.PRFSize)
	key = append(append(append(key, "mitra/"...), s.namespace...), '/')
	return key, len(key)
}

// Insert stores encrypted cells.
func (s *Server) Insert(entries []Entry) error {
	key, prefix := s.keyPrefix()
	for _, e := range entries {
		key = append(key[:prefix], e.Addr...)
		if err := s.store.Set(key, e.Val); err != nil {
			return fmt.Errorf("mitra: inserting cell: %w", err)
		}
	}
	return nil
}

// Search returns the stored values for the requested addresses, position-
// aligned with the request (nil for missing cells) so the client can
// derive the right pad per position.
func (s *Server) Search(req SearchRequest) ([][]byte, error) {
	out := make([][]byte, len(req.Addrs))
	key, prefix := s.keyPrefix()
	for i, addr := range req.Addrs {
		key = append(key[:prefix], addr...)
		v, ok, err := s.store.Get(key)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = v
		}
	}
	return out, nil
}
