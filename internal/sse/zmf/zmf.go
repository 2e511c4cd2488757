// Package zmf implements an encrypted set-membership index in the spirit
// of the Z-index matryoshka filters used by the BIEX-ZMF variant of
// Kamara-Moataz boolean SSE (EUROCRYPT 2017): one fixed-size counting
// Bloom filter per keyword, with bit positions derived from a per-keyword
// PRF key so the server learns nothing about ids it has no test token for.
//
// Compared with the cross-multimap of BIEX-2Lev, filters cost O(1) space
// per (keyword, id) pair instead of one multimap cell per *pair of
// keywords* per document — the space/read-efficiency trade-off the paper's
// Table 2 contrasts (BIEX-2Lev vs BIEX-ZMF) — at the price of a bounded
// false-positive rate.
package zmf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"datablinder/internal/crypto/keycache"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
)

// Filter geometry. With m = 2^18 counters and k = 7 probes, a keyword with
// 1,000 members has a false-positive rate around 1e-7.
const (
	// FilterBits is the number of counters per keyword filter.
	FilterBits = 1 << 18
	// Hashes is the number of probes per id.
	Hashes = 7
)

// ErrBadToken is returned for malformed test tokens.
var ErrBadToken = errors.New("zmf: malformed test token")

// TestToken lets the server test arbitrary ids against one keyword's
// filter. Handing out the per-keyword key is the scheme's query leakage:
// the server can thereafter test any id it knows against this keyword.
type TestToken struct {
	// Label addresses the filter.
	Label []byte `json:"label"`
	// ProbeKey derives probe positions for ids.
	ProbeKey []byte `json:"probe_key"`
}

// UpdateEntry is one encrypted filter update: the filter label plus the
// probe positions to increment or decrement.
type UpdateEntry struct {
	Label     []byte   `json:"label"`
	Positions []uint64 `json:"positions"`
	// Delta is +1 for insertion, -1 for deletion.
	Delta int64 `json:"delta"`
}

// kwDerived is the cached per-keyword material: filter label + probe key.
type kwDerived struct {
	label primitives.Key // full PRF output; sliced when used as a label
	probe primitives.Key
}

// Client is the gateway half.
type Client struct {
	keyLabel primitives.Key
	keyProbe primitives.Key
	kwKeys   *keycache.Cache[string, kwDerived]
}

// NewClient derives the ZMF client keys from key.
func NewClient(key primitives.Key) *Client {
	return &Client{
		keyLabel: primitives.PRFKey(key, []byte("zmf-label")),
		keyProbe: primitives.PRFKey(key, []byte("zmf-probe")),
		kwKeys:   keycache.New[string, kwDerived](keycache.DefaultSize),
	}
}

func (c *Client) derived(namespace, w string) kwDerived {
	ck := namespace + "\x00" + w
	if d, ok := c.kwKeys.Get(ck); ok {
		return d
	}
	d := kwDerived{
		label: primitives.PRFKey(c.keyLabel, []byte(namespace), []byte{0}, []byte(w)),
		probe: primitives.PRFKey(c.keyProbe, []byte(namespace), []byte{0}, []byte(w)),
	}
	c.kwKeys.Put(ck, d)
	return d
}

func (c *Client) label(namespace, w string) []byte {
	d := c.derived(namespace, w)
	return d.label[:]
}

func (c *Client) probeKey(namespace, w string) primitives.Key {
	return c.derived(namespace, w).probe
}

// prober derives probe positions under one keyword's probe key with the
// PRF keyed once, so the per-keyword key never enters the HMAC pool and a
// Test over n candidates keys HMAC once, not 7n times. Position h of id is
// PRF(probeKey, h || id) (h 8 bytes big-endian) mod FilterBits.
type prober struct {
	prf *primitives.PRFState
	in  []byte
	out [primitives.PRFSize]byte
}

func newProber(probeKey primitives.Key) *prober {
	return &prober{prf: primitives.NewPRFState(probeKey), in: make([]byte, 8, 64)}
}

// positions derives the probe positions of id.
func (p *prober) positions(id string) []uint64 {
	p.in = append(p.in[:8], id...)
	out := make([]uint64, Hashes)
	for h := range out {
		binary.BigEndian.PutUint64(p.in, uint64(h))
		out[h] = binary.BigEndian.Uint64(p.prf.Append(p.out[:0], p.in)) % FilterBits
	}
	return out
}

// Insert builds the filter update adding id to keyword w.
func (c *Client) Insert(namespace, w, id string) UpdateEntry {
	return UpdateEntry{
		Label:     c.label(namespace, w),
		Positions: newProber(c.probeKey(namespace, w)).positions(id),
		Delta:     1,
	}
}

// Delete builds the filter update removing id from keyword w. Counting
// filters make deletion exact as long as every delete matches a prior
// insert.
func (c *Client) Delete(namespace, w, id string) UpdateEntry {
	e := c.Insert(namespace, w, id)
	e.Delta = -1
	return e
}

// Token builds the membership-test token for keyword w.
func (c *Client) Token(namespace, w string) TestToken {
	pk := c.probeKey(namespace, w)
	return TestToken{Label: c.label(namespace, w), ProbeKey: pk[:]}
}

// Server is the cloud half: a counting-filter store.
type Server struct {
	store     *kvstore.Store
	namespace string
	mu        sync.Mutex // serializes read-modify-write of counters
}

// NewServer builds a server over store.
func NewServer(store *kvstore.Store, namespace string) *Server {
	return &Server{store: store, namespace: namespace}
}

func (s *Server) filterKey(label []byte) []byte {
	return append([]byte("zmf/"+s.namespace+"/"), label...)
}

func posField(p uint64) []byte { return primitives.Uint64Bytes(p) }

// Apply executes filter updates.
func (s *Server) Apply(entries []UpdateEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if len(e.Positions) != Hashes {
			return fmt.Errorf("zmf: update with %d positions, want %d", len(e.Positions), Hashes)
		}
		fk := s.filterKey(e.Label)
		for _, p := range e.Positions {
			if p >= FilterBits {
				return fmt.Errorf("zmf: position %d out of range", p)
			}
			cur, ok, err := s.store.HGet(fk, posField(p))
			if err != nil {
				return err
			}
			var n int64
			if ok {
				n = int64(uint64(cur[0]) | uint64(cur[1])<<8 | uint64(cur[2])<<16 | uint64(cur[3])<<24)
			}
			n += e.Delta
			if n < 0 {
				n = 0 // deletes beyond inserts clamp; never corrupt the filter
			}
			if n == 0 {
				if err := s.store.HDel(fk, posField(p)); err != nil {
					return err
				}
				continue
			}
			buf := []byte{byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24)}
			if err := s.store.HSet(fk, posField(p), buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Test reports, for each id, whether it is (probably) a member of the
// token's keyword set. False positives occur with the filter's designed
// probability; false negatives never occur.
func (s *Server) Test(t TestToken, ids []string) ([]bool, error) {
	pk, err := primitives.KeyFromBytes(t.ProbeKey)
	if err != nil {
		return nil, ErrBadToken
	}
	fk := s.filterKey(t.Label)
	probe := newProber(pk)
	out := make([]bool, len(ids))
	for i, id := range ids {
		member := true
		for _, p := range probe.positions(id) {
			_, ok, err := s.store.HGet(fk, posField(p))
			if err != nil {
				return nil, err
			}
			if !ok {
				member = false
				break
			}
		}
		out[i] = member
	}
	return out, nil
}

// FilterSize returns the number of occupied counters for a token's filter
// (storage accounting for the benchmarks).
func (s *Server) FilterSize(t TestToken) (int, error) {
	return s.store.HLen(s.filterKey(t.Label))
}
