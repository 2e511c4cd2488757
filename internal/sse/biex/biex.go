// Package biex implements boolean searchable symmetric encryption in the
// style of the IEX construction of Kamara and Moataz (EUROCRYPT 2017),
// in the two variants the paper integrates from Clusion:
//
//   - BIEX-2Lev: a *global* encrypted multimap g (keyword → ids) plus a
//     *cross* multimap x (keyword pair → ids of documents containing both).
//     Conjunctions resolve by intersecting server-side multimap lookups —
//     read-efficient but storage-heavy (the paper's "storage impl.
//     complexity" challenge).
//   - BIEX-ZMF: the same global multimap, with the cross multimap replaced
//     by per-keyword matryoshka (counting Bloom) filters — space-efficient
//     with a bounded false-positive rate.
//
// Queries are boolean formulas in disjunctive normal form; each
// conjunction needs at least one positive literal (the IEX anchor).
// The leakage level is Predicates (protection class 3): the server learns
// the shape of the query and partial intersection sizes, not the keywords.
//
// Deletions and updates use *versioned index ids*: every insert of a
// document id is tagged with a fresh version (id#v). Deleting bumps the
// version without inserting, so stale index cells resolve to superseded
// versions and are dropped at resolution time. This layers dynamism over
// the static IEX structures without server-side tombstones.
//
// # Keyword partitioning
//
// The index shards by keyword: every keyword carries a routing label (a
// PRF of the keyword, independent of the cell addresses), and all state a
// conjunction anchored at that keyword needs co-locates on the label's
// shard — the keyword's global-multimap cells, a replica of every cross
// pair cell the keyword participates in, and (ZMF) the filters of its
// co-occurring keywords. Insert takes a ShardFunc and returns one Entries
// batch per shard; Token takes the same ShardFunc and returns one
// SearchToken per shard. A conjunction therefore still resolves entirely
// server-side (the sub-linear IEX walk is preserved), while distinct
// anchor keywords — and hence the index as a whole — spread across the
// tier.
//
// # Hot-keyword spill
//
// Keyword-granular placement alone cannot balance a skewed corpus: an
// enum keyword matching a fifth of all documents pins that fifth's cells
// (and every pair replica it anchors) to one shard. Each keyword's index
// therefore splits into fixed-size spill buckets: the client counts the
// keyword's inserts, and every SpillThreshold of them open a new bucket
// with its own routing label. A document's cells for keyword w — its
// global cell, the pair replicas anchored at w, the filters shipped for
// w's benefit — all place by w's bucket at that insert, so each bucket
// shard holds a self-contained slice of the keyword's index and refines
// its conjunctions entirely locally. Bucket membership is a pure function
// of client-side counters, so placement needs no directory and survives
// restarts.
//
// # Resolving a conjunction
//
// A conjunction is anchored at its rarest positive literal (fewest inserts
// by the client's spill counter) and becomes one ConjToken per shard that
// holds a bucket of the anchor — not one per bucket: a shard walks each
// structure once however many of the anchor's buckets it hosts, and a rare
// anchor keeps the whole conjunction on one shard. On each shard the
// candidates come from the smallest structure that can supply them:
//
//   - 2Lev, all other literals positive: the pair list of (anchor, literal)
//     with the fewest cells; the remaining pair lists refine it. The
//     anchor's global cells are never read and their tokens never sent —
//     the pair multimap answers the conjunction, the global multimap only
//     serves single keywords, which is the IEX walk. Sound because every
//     pair cell of document d has a replica on the shard of the anchor's
//     bucket at d's insert, and that shard is one of those queried: there d
//     is in every pair list it belongs to, so it is found; elsewhere a
//     shard can only report d if it holds d's cell in every positive pair
//     list, and a cell exists only for a document containing both
//     keywords, so nothing false is ever reported.
//   - a negated literal, the ZMF variant, or no other literal at all: the
//     anchor's global buckets on that shard, refined by every constraint.
//     A negation needs them because absence from a pair list proves
//     nothing on a shard that merely holds the *other* keyword's replica of
//     d's cells; the global cell marks the shard whose view of d is
//     complete.
package biex

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"datablinder/internal/crypto/primitives"
	"datablinder/internal/sse/emm"
	"datablinder/internal/sse/zmf"
	"datablinder/internal/store/kvstore"
)

// Variant selects the cross-keyword structure.
type Variant string

// Variants.
const (
	Variant2Lev Variant = "2lev"
	VariantZMF  Variant = "zmf"
)

// Errors returned by this package.
var (
	ErrNoPositiveLiteral = errors.New("biex: every conjunction needs at least one positive literal")
	ErrEmptyQuery        = errors.New("biex: empty query")
	ErrBadVariant        = errors.New("biex: unknown variant")
	// ErrNoCandidates reports a conjunction token with neither anchor
	// buckets nor a positive pair constraint to draw candidates from.
	ErrNoCandidates = errors.New("biex: conjunction token names no candidate source")
)

// SpillThreshold is how many inserts of one keyword share a spill bucket
// before the next bucket (and routing label) opens. Low enough that an
// enum keyword matching a large corpus fraction spreads over several
// shards; high enough that the long tail of rare keywords stays in bucket
// 0 and keeps single-shard conjunction resolution.
const SpillThreshold = 32

// Literal is one keyword occurrence in a conjunction.
type Literal struct {
	Keyword string `json:"keyword"`
	Negated bool   `json:"negated,omitempty"`
}

// Query is a boolean formula in DNF: the union of its conjunctions.
type Query [][]Literal

// Validate checks the DNF restrictions.
func (q Query) Validate() error {
	if len(q) == 0 {
		return ErrEmptyQuery
	}
	for _, conj := range q {
		hasPos := false
		for _, l := range conj {
			if !l.Negated {
				hasPos = true
				break
			}
		}
		if !hasPos {
			return ErrNoPositiveLiteral
		}
	}
	return nil
}

// Constraint refines an anchor's candidate set server-side: exactly one of
// Cross (2Lev pair lookup) or Filter (ZMF membership test) is set.
type Constraint struct {
	Cross   *emm.SearchToken `json:"cross,omitempty"`
	Filter  *zmf.TestToken   `json:"filter,omitempty"`
	Negated bool             `json:"negated,omitempty"`
}

// ConjToken resolves one conjunction on one shard.
type ConjToken struct {
	// Anchors are the tokens of the anchor keyword's global-multimap spill
	// buckets living on this shard: the candidate set. Empty when the
	// candidates come from a pair list instead — the server then neither
	// reads nor learns anything about the anchor's global cells.
	Anchors     []emm.SearchToken `json:"anchors,omitempty"`
	Constraints []Constraint      `json:"constraints,omitempty"`
}

// SearchToken resolves a DNF query on one shard: the union of its
// conjunctions.
type SearchToken struct {
	Conjunctions []ConjToken `json:"conjunctions"`
}

func versionKey(namespace, id string) []byte {
	return []byte("biexver/" + namespace + "\x00" + id)
}

func spillKey(namespace, w string) []byte {
	return []byte("biexspill/" + namespace + "\x00" + w)
}

// version returns the current version of id (0 = never inserted).
func (c *Client) version(namespace, id string) (uint64, error) {
	return c.decimal(versionKey(namespace, id), "version")
}

// setVersion stores the current version of id.
func (c *Client) setVersion(namespace, id string, v uint64) error {
	return c.store.Set(versionKey(namespace, id), strconv.AppendUint(nil, v, 10))
}

// spill returns how many inserts of keyword w have been indexed (0 = never
// seen); spill/SpillThreshold is the keyword's current bucket.
func (c *Client) spill(namespace, w string) (uint64, error) {
	return c.decimal(spillKey(namespace, w), "spill counter")
}

// setSpill stores keyword w's insert count.
func (c *Client) setSpill(namespace, w string, n uint64) error {
	return c.store.Set(spillKey(namespace, w), strconv.AppendUint(nil, n, 10))
}

// decimal reads a decimal integer from the gateway store (0 if absent).
func (c *Client) decimal(key []byte, what string) (uint64, error) {
	raw, ok, err := c.store.Get(key)
	if err != nil || !ok {
		return 0, err
	}
	n, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("biex: decoding %s: %w", what, err)
	}
	return n, nil
}

func versionedID(id string, v uint64) string {
	return id + "#" + strconv.FormatUint(v, 10)
}

func splitVersioned(vid string) (id string, v uint64, ok bool) {
	i := strings.LastIndexByte(vid, '#')
	if i < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseUint(vid[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return vid[:i], v, true
}

// pairKeyword canonicalizes a keyword pair for the cross multimap. The
// pair is unordered: (a,b) and (b,a) share one cell list.
func pairKeyword(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "\x00" + b
}

// bucketKeyword names keyword w's spill bucket b in the global multimap.
// Every bucket — including bucket 0 — is encoded uniformly, so each has
// its own EMM counter and packed state and compaction can repack one
// bucket without disturbing its siblings. Cross pair cells and ZMF
// filters keep raw keyword addressing: buckets partition *placement*, not
// the cross structures' key space.
func bucketKeyword(w string, b uint64) string {
	return strconv.FormatUint(b, 10) + "\x00" + w
}

// Entries is the batch of server updates produced by one client operation.
// Cross pair cells ship packed (CrossPacked) and are expanded server-side
// into their stored shared-payload values (emm.SharedValue).
type Entries struct {
	Global      []emm.Entry       `json:"global,omitempty"`
	CrossPacked []PackedEntry     `json:"cross_packed,omitempty"`
	Filter      []zmf.UpdateEntry `json:"filter,omitempty"`
}

// Cells counts the index cells the batch carries, counting packed entries
// by their contents — the unit a node's multimap insert work scales with,
// regardless of how the cells were framed.
func (e Entries) Cells() int {
	n := len(e.Global) + len(e.Filter)
	for _, p := range e.CrossPacked {
		n += p.Count
	}
	return n
}

// WireEntries counts the top-level entries the batch serializes — the
// framing the packed form compresses: a k-keyword document's O(k²) pair
// cells collapse into O(1) packed entries per shard.
func (e Entries) WireEntries() int {
	return len(e.Global) + len(e.CrossPacked) + len(e.Filter)
}

// PackedEntry ships n same-shaped multimap cells as two concatenated
// blobs. BIEX pair cells are uniform — PRF-sized addresses and, within one
// document insert, equal-length sealed values — so the O(k²) cells of a
// k-keyword document pack into a single entry per shard, replacing O(k²)
// per-cell JSON envelopes (two base64 fields and their keys per cell) with
// O(k²) bytes in two blobs.
type PackedEntry struct {
	Count   int    `json:"n"`
	AddrLen int    `json:"alen"`
	ValLen  int    `json:"vlen"`
	Addrs   []byte `json:"addrs"`
	Vals    []byte `json:"vals"`
	// Shared, when set, is a sealed payload common to every cell in the
	// entry: each cell's Vals slot is then an emm.SharedWrapLen-byte key
	// wrap, and the stored value is assembled server-side as
	// emm.SharedValue(wrap, Nonce, Shared). A k-keyword document's O(k²)
	// pair cells — identical plaintext sealed under O(k²) pair keys in the
	// legacy form — ship the payload once per entry and 32 bytes per cell.
	Shared []byte `json:"shared,omitempty"`
	// Nonce is the shared group's wrap nonce (emm.SharedNonceLen bytes).
	Nonce []byte `json:"nonce,omitempty"`
}

// PackEntries groups cells by (address length, value length) shape,
// preserving first-seen group order and cell order within each group.
func PackEntries(cells []emm.Entry) []PackedEntry {
	if len(cells) == 0 {
		return nil
	}
	idx := make(map[[2]int]int)
	out := make([]PackedEntry, 0, 1)
	for _, e := range cells {
		k := [2]int{len(e.Addr), len(e.Val)}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, PackedEntry{AddrLen: k[0], ValLen: k[1]})
		}
		p := &out[i]
		p.Count++
		p.Addrs = append(p.Addrs, e.Addr...)
		p.Vals = append(p.Vals, e.Val...)
	}
	return out
}

// UnpackEntries expands packed entries back into individual cells,
// validating blob lengths against the declared shape.
func UnpackEntries(packed []PackedEntry) ([]emm.Entry, error) {
	var total int
	for _, p := range packed {
		if p.Count < 0 || p.AddrLen <= 0 || p.ValLen <= 0 ||
			len(p.Addrs) != p.Count*p.AddrLen || len(p.Vals) != p.Count*p.ValLen {
			return nil, fmt.Errorf("biex: malformed packed entry (n=%d alen=%d vlen=%d addrs=%d vals=%d)",
				p.Count, p.AddrLen, p.ValLen, len(p.Addrs), len(p.Vals))
		}
		if len(p.Shared) > 0 && (p.ValLen != emm.SharedWrapLen || len(p.Nonce) != emm.SharedNonceLen) {
			return nil, fmt.Errorf("biex: malformed shared packed entry (vlen=%d nonce=%d)",
				p.ValLen, len(p.Nonce))
		}
		total += p.Count
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]emm.Entry, 0, total)
	for _, p := range packed {
		for i := 0; i < p.Count; i++ {
			val := p.Vals[i*p.ValLen : (i+1)*p.ValLen : (i+1)*p.ValLen]
			if len(p.Shared) > 0 {
				// Expand the wrap into a self-contained stored value; the
				// dedup is a wire-framing optimization only.
				val = emm.SharedValue(val, p.Nonce, p.Shared)
			}
			out = append(out, emm.Entry{
				Addr: p.Addrs[i*p.AddrLen : (i+1)*p.AddrLen : (i+1)*p.AddrLen],
				Val:  val,
			})
		}
	}
	return out, nil
}

// ShardFunc maps a routing label to the index of the shard owning it.
// Single-node deployments pass SingleShard; sharded gateways pass the
// consistent-hash ring's lookup.
type ShardFunc func(label string) int

// SingleShard is the ShardFunc of an unsharded deployment: everything
// lands on shard 0.
func SingleShard(string) int { return 0 }

// Client is the gateway half of BIEX.
type Client struct {
	variant Variant
	global  *emm.Client
	cross   *emm.Client
	filters *zmf.Client
	route   primitives.Key // derives per-keyword routing labels
	store   *kvstore.Store // the gateway store: versions, spill and EMM counters
}

// NewClient derives a BIEX client from key; store keeps its per-document
// versions, per-keyword spill counters and EMM counters.
func NewClient(key primitives.Key, store *kvstore.Store, variant Variant) (*Client, error) {
	if variant != Variant2Lev && variant != VariantZMF {
		return nil, ErrBadVariant
	}
	return &Client{
		variant: variant,
		global:  emm.NewClient(primitives.PRFKey(key, []byte("biex-global")), store),
		cross:   emm.NewClient(primitives.PRFKey(key, []byte("biex-cross")), store),
		filters: zmf.NewClient(primitives.PRFKey(key, []byte("biex-zmf"))),
		route:   primitives.PRFKey(key, []byte("biex-route")),
		store:   store,
	}, nil
}

// Variant reports the client's cross-structure variant.
func (c *Client) Variant() Variant { return c.variant }

// BucketRoute returns the routing label of keyword w's spill bucket: the
// pseudorandom, stable key that places that bucket's index state on a
// shard. It is derived independently of the cell addresses, so handing it
// to a router leaks nothing beyond which operations share a (keyword,
// bucket) — which the search tokens reveal anyway.
func (c *Client) BucketRoute(namespace, w string, bucket uint64) string {
	return hex.EncodeToString(primitives.PRF(
		c.route, []byte(namespace), []byte{0}, []byte(w), []byte{0},
		[]byte(strconv.FormatUint(bucket, 10))))
}

// Buckets reports how many spill buckets keyword w currently spans: at
// least 1 (a never-seen keyword still owns its empty bucket 0), growing
// by one for every SpillThreshold inserts.
func (c *Client) Buckets(namespace, w string) (int, error) {
	n, err := c.spill(namespace, w)
	return int(bucketCount(n)), err
}

// bucketCount is the number of spill buckets a keyword with the given
// insert count spans.
func bucketCount(inserts uint64) uint64 {
	if inserts == 0 {
		return 1
	}
	return (inserts-1)/SpillThreshold + 1
}

// Insert indexes a document's keywords, assigning a fresh version, and
// groups the produced entries by owning shard (per shardOf over each
// keyword's current spill-bucket routing label). The caller delivers each
// batch to the matching shard's Server.Insert. Placement invariants:
//
//   - a keyword's global cell lands on the shard of its current spill
//     bucket (the bucket also names the cell, giving each bucket its own
//     EMM counter);
//   - a cross pair cell is appended once (one counter bump) but shipped
//     to both member keywords' bucket shards, so whichever of the two
//     anchors a future conjunction can refine server-side;
//   - a ZMF filter update for keyword u is shipped to the bucket shard of
//     every keyword co-occurring with u in this document — exactly the
//     shards that can anchor a conjunction constraining on u. On a single
//     shard this degenerates to one update per keyword pair set, and a
//     document's sole keyword needs no filter at all (a filter is only
//     consulted for candidates that matched a co-occurring anchor).
//
// All of a document's cells for keyword w place by one bucket, so that
// bucket's shard holds a self-contained slice of w's index: anchoring a
// conjunction there never needs another shard's cells.
func (c *Client) Insert(namespace, id string, keywords []string, shardOf ShardFunc) (map[int]*Entries, error) {
	out, commit, err := c.Prepare(namespace, id, keywords, shardOf)
	if err != nil {
		return nil, err
	}
	return out, commit()
}

// Prepare is Insert without the version bump: the entries carry the
// document's next version, which only becomes the live one when the caller
// runs commit — before delivering the batches. A caller that drops the
// entries instead leaves the document's current index entries live.
func (c *Client) Prepare(namespace, id string, keywords []string, shardOf ShardFunc) (out map[int]*Entries, commit func() error, err error) {
	v, err := c.version(namespace, id)
	if err != nil {
		return nil, nil, err
	}
	v++
	commit = func() error { return c.setVersion(namespace, id, v) }
	vid := versionedID(id, v)

	// Deduplicate keywords; pair generation assumes distinct keywords.
	uniq := make([]string, 0, len(keywords))
	seen := make(map[string]bool, len(keywords))
	for _, w := range keywords {
		if !seen[w] {
			seen[w] = true
			uniq = append(uniq, w)
		}
	}
	sort.Strings(uniq)

	shard := make([]int, len(uniq))
	bucket := make([]uint64, len(uniq))
	for i, w := range uniq {
		n, err := c.spill(namespace, w)
		if err != nil {
			return nil, nil, err
		}
		bucket[i] = n / SpillThreshold
		if err := c.setSpill(namespace, w, n+1); err != nil {
			return nil, nil, err
		}
		shard[i] = shardOf(c.BucketRoute(namespace, w, bucket[i]))
	}
	out = make(map[int]*Entries)
	grp := func(s int) *Entries {
		e, ok := out[s]
		if !ok {
			e = &Entries{}
			out[s] = e
		}
		return e
	}

	for i, w := range uniq {
		e, err := c.global.Append(namespace, bucketKeyword(w, bucket[i]), vid)
		if err != nil {
			return nil, nil, err
		}
		g := grp(shard[i])
		g.Global = append(g.Global, e)
	}
	switch c.variant {
	case Variant2Lev:
		// Pair cells accumulate per shard and ship packed: one counter
		// bump per pair, a replica on both member keywords' shards, but
		// O(1) wire entries per shard instead of one per cell. Every pair
		// cell of this insert carries the same versioned id, so the sealed
		// payload ships once per entry (value-deduped): each cell is a
		// fixed-size wrap of an ephemeral group key, and the server
		// expands wraps into self-contained stored values.
		if len(uniq) >= 2 {
			kd, err := primitives.NewRandomKey()
			if err != nil {
				return nil, nil, err
			}
			nonce, err := primitives.RandomBytes(emm.SharedNonceLen)
			if err != nil {
				return nil, nil, err
			}
			shared, err := emm.SealSharedIDs(kd, []string{vid})
			if err != nil {
				return nil, nil, err
			}
			perShard := make(map[int][]emm.Entry)
			for i := 0; i < len(uniq); i++ {
				for j := i + 1; j < len(uniq); j++ {
					addr, vk, err := c.cross.AppendAddr(namespace, pairKeyword(uniq[i], uniq[j]))
					if err != nil {
						return nil, nil, err
					}
					e := emm.Entry{Addr: addr, Val: emm.WrapSharedKey(vk, nonce, kd)}
					perShard[shard[i]] = append(perShard[shard[i]], e)
					if shard[j] != shard[i] {
						perShard[shard[j]] = append(perShard[shard[j]], e)
					}
				}
			}
			for s, cells := range perShard {
				g := grp(s)
				g.CrossPacked = PackEntries(cells)
				for i := range g.CrossPacked {
					g.CrossPacked[i].Shared = shared
					g.CrossPacked[i].Nonce = nonce
				}
			}
		}
	case VariantZMF:
		for i, w := range uniq {
			var entry *zmf.UpdateEntry
			targets := make(map[int]bool, len(uniq)-1)
			for j := range uniq {
				if j == i || targets[shard[j]] {
					continue
				}
				targets[shard[j]] = true
				if entry == nil {
					e := c.filters.Insert(namespace, w, vid)
					entry = &e
				}
				g := grp(shard[j])
				g.Filter = append(g.Filter, *entry)
			}
		}
	}
	return out, commit, nil
}

// Delete supersedes every index entry of id by bumping its version. No
// server interaction is required; stale cells become unreachable results.
func (c *Client) Delete(namespace, id string) error {
	v, err := c.version(namespace, id)
	if err != nil {
		return err
	}
	if v == 0 {
		return nil // never indexed
	}
	return c.setVersion(namespace, id, v+1)
}

// Token compiles a DNF query into one search token per shard that has work
// to do (per shardOf over the anchors' spill-bucket routing labels); the
// caller delivers each to the matching shard's Server.Search and unions the
// replies. An empty map means every conjunction was unsatisfiable. See the
// package comment for how a conjunction picks its anchor and its candidate
// source.
func (c *Client) Token(namespace string, q Query, shardOf ShardFunc) (map[int]*SearchToken, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	out := make(map[int]*SearchToken)
	for _, conj := range q {
		// Anchor: the rarest positive literal, the first among equals.
		anchorIdx := -1
		var inserts uint64
		for i, l := range conj {
			if l.Negated {
				continue
			}
			n, err := c.spill(namespace, l.Keyword)
			if err != nil {
				return nil, err
			}
			if anchorIdx < 0 || n < inserts {
				anchorIdx, inserts = i, n
			}
		}
		anchorKw := conj[anchorIdx].Keyword
		var constraints []Constraint
		positive, negated, unsatisfiable := false, false, false
		for i, l := range conj {
			if i == anchorIdx {
				continue
			}
			// Literals repeating the anchor keyword degenerate: a positive
			// repeat is redundant; a negated repeat (w AND NOT w) makes the
			// whole conjunction unsatisfiable. The cross multimap stores no
			// self-pairs, so these must be resolved here.
			if l.Keyword == anchorKw {
				if l.Negated {
					unsatisfiable = true
					break
				}
				continue
			}
			var con Constraint
			con.Negated = l.Negated
			switch c.variant {
			case Variant2Lev:
				t, err := c.cross.Token(namespace, pairKeyword(anchorKw, l.Keyword))
				if err != nil {
					return nil, err
				}
				con.Cross = &t
			case VariantZMF:
				t := c.filters.Token(namespace, l.Keyword)
				con.Filter = &t
			}
			constraints = append(constraints, con)
			if l.Negated {
				negated = true
			} else {
				positive = true
			}
		}
		if unsatisfiable {
			continue
		}
		// Candidates come from a pair list when one exists and nothing is
		// negated; otherwise from the anchor's global buckets.
		pairFirst := c.variant == Variant2Lev && positive && !negated
		// One ConjToken per shard holding a bucket of the anchor; a shard
		// hosting several buckets gets them, in bucket order, in that token.
		seen := make(map[int]bool)
		for b := uint64(0); b < bucketCount(inserts); b++ {
			shard := shardOf(c.BucketRoute(namespace, anchorKw, b))
			tok := out[shard]
			if tok == nil {
				tok = &SearchToken{}
				out[shard] = tok
			}
			if !seen[shard] {
				seen[shard] = true
				tok.Conjunctions = append(tok.Conjunctions, ConjToken{Constraints: constraints})
			}
			if pairFirst {
				continue
			}
			anchor, err := c.global.Token(namespace, bucketKeyword(anchorKw, b))
			if err != nil {
				return nil, err
			}
			ct := &tok.Conjunctions[len(tok.Conjunctions)-1]
			ct.Anchors = append(ct.Anchors, anchor)
		}
	}
	return out, nil
}

// LiveVersioned filters versioned index ids down to those carrying their
// document's current version, preserving the versioned form. Compaction
// uses it to decide which entries survive a repack.
func (c *Client) LiveVersioned(namespace string, vids []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, vid := range vids {
		id, v, ok := splitVersioned(vid)
		if !ok || seen[vid] {
			continue
		}
		cur, err := c.version(namespace, id)
		if err != nil {
			return nil, err
		}
		if v == cur {
			seen[vid] = true
			out = append(out, vid)
		}
	}
	sort.Strings(out)
	return out, nil
}

// BucketToken builds a single-conjunction token fetching every cell of
// keyword w's spill bucket, for compaction sweeps. Route it with
// BucketRoute(namespace, w, bucket).
func (c *Client) BucketToken(namespace, w string, bucket uint64) (SearchToken, error) {
	anchor, err := c.global.Token(namespace, bucketKeyword(w, bucket))
	if err != nil {
		return SearchToken{}, err
	}
	return SearchToken{Conjunctions: []ConjToken{{Anchors: []emm.SearchToken{anchor}}}}, nil
}

// RepackGlobal rebuilds one spill bucket of keyword w's global-multimap
// list into 2Lev packed buckets holding exactly the given live versioned
// ids, superseding the dynamic tail cells accumulated by inserts. It
// returns the new bucket entries and the addresses of the now-stale
// cells; deliver both to Server.RepackGlobal on the spill bucket's shard
// — the packed cells stay co-located with that bucket's pair replicas and
// filters. Read efficiency improves from one fetch per id to one fetch
// per packed bucket.
func (c *Client) RepackGlobal(namespace, w string, bucket uint64, liveVids []string) (entries []emm.Entry, stale [][]byte, err error) {
	bw := bucketKeyword(w, bucket)
	entries, old, _, err := c.global.BuildPacked(namespace, bw, liveVids)
	if err != nil {
		return nil, nil, err
	}
	return entries, c.global.StaleAddrs(namespace, bw, old), nil
}

// Resolve filters the server's versioned results down to live document
// ids: only entries carrying a document's *current* version survive.
func (c *Client) Resolve(namespace string, vids []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for _, vid := range vids {
		id, v, ok := splitVersioned(vid)
		if !ok {
			continue // foreign/corrupt entry; skip
		}
		cur, err := c.version(namespace, id)
		if err != nil {
			return nil, err
		}
		if v == cur && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Server is the cloud half of BIEX.
type Server struct {
	global  *emm.Server
	cross   *emm.Server
	filters *zmf.Server
}

// NewServer builds a server over store. namespace isolates schemas.
func NewServer(store *kvstore.Store, namespace string) *Server {
	return &Server{
		global:  emm.NewServer(store, "biexg/"+namespace),
		cross:   emm.NewSharedServer(store, "biexx/"+namespace),
		filters: zmf.NewServer(store, "biexz/"+namespace),
	}
}

// RepackGlobal atomically (delete-then-insert) replaces a keyword's
// global-multimap cells with packed buckets produced by
// Client.RepackGlobal.
func (s *Server) RepackGlobal(stale [][]byte, entries []emm.Entry) error {
	if err := s.global.Delete(stale); err != nil {
		return err
	}
	return s.global.Insert(entries)
}

// Insert applies a client update batch, expanding packed pair cells.
func (s *Server) Insert(e Entries) error {
	if err := s.global.Insert(e.Global); err != nil {
		return err
	}
	if len(e.CrossPacked) > 0 {
		cells, err := UnpackEntries(e.CrossPacked)
		if err != nil {
			return err
		}
		if err := s.cross.Insert(cells); err != nil {
			return err
		}
	}
	return s.filters.Apply(e.Filter)
}

// Search executes the DNF token and returns versioned ids (the union of
// the conjunction results). The gateway must Resolve them.
func (s *Server) Search(tok SearchToken) ([]string, error) {
	union := make(map[string]bool)
	var order []string
	for _, conj := range tok.Conjunctions {
		ids, err := s.searchConj(conj)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if !union[id] {
				union[id] = true
				order = append(order, id)
			}
		}
	}
	sort.Strings(order)
	return order, nil
}

// pairCells bounds how many ids a multimap token's cells hold.
func pairCells(t *emm.SearchToken) uint64 {
	return t.Counts.Packed*emm.BucketCapacity + t.Counts.Tail
}

func (s *Server) searchConj(conj ConjToken) ([]string, error) {
	var candidates []string
	start := -1 // the constraint the candidates came from, if not the anchor
	if len(conj.Anchors) > 0 {
		for _, anchor := range conj.Anchors {
			ids, err := s.global.Search(anchor)
			if err != nil {
				return nil, err
			}
			candidates = append(candidates, ids...)
		}
	} else {
		for i, con := range conj.Constraints {
			if con.Cross != nil && !con.Negated &&
				(start < 0 || pairCells(con.Cross) < pairCells(conj.Constraints[start].Cross)) {
				start = i
			}
		}
		if start < 0 {
			return nil, ErrNoCandidates
		}
		var err error
		if candidates, err = s.cross.Search(*conj.Constraints[start].Cross); err != nil {
			return nil, err
		}
	}
	for i, con := range conj.Constraints {
		if i == start {
			continue
		}
		if len(candidates) == 0 {
			return nil, nil
		}
		switch {
		case con.Cross != nil:
			pairIDs, err := s.cross.Search(*con.Cross)
			if err != nil {
				return nil, err
			}
			inPair := make(map[string]bool, len(pairIDs))
			for _, id := range pairIDs {
				inPair[id] = true
			}
			candidates = filterIDs(candidates, func(id string) bool {
				return inPair[id] != con.Negated
			})
		case con.Filter != nil:
			member, err := s.filters.Test(*con.Filter, candidates)
			if err != nil {
				return nil, err
			}
			kept := candidates[:0:0]
			for i, id := range candidates {
				if member[i] != con.Negated {
					kept = append(kept, id)
				}
			}
			candidates = kept
		default:
			return nil, errors.New("biex: constraint with no structure")
		}
	}
	return candidates, nil
}

func filterIDs(ids []string, keep func(string) bool) []string {
	out := ids[:0:0]
	for _, id := range ids {
		if keep(id) {
			out = append(out, id)
		}
	}
	return out
}
