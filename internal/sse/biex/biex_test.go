package biex

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"datablinder/internal/crypto/primitives"
	"datablinder/internal/sse/emm"
	"datablinder/internal/store/kvstore"
)

func setup(t testing.TB, v Variant) (*Client, *Server) {
	t.Helper()
	key, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	c, err := NewClient(key, kvstore.New(), v)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c, NewServer(kvstore.New(), "obs")
}

// tier is a client over n servers, partitioned by a hash of the routing
// label (a single server when n is 1).
type tier struct {
	c      *Client
	shards []*Server
	stores []*kvstore.Store
}

// pinnedKey is a fixed master key: placement is a PRF of it, so tests that
// assert on which shards cells land fix it instead of drawing one.
func pinnedKey(seed byte) primitives.Key {
	var k primitives.Key
	for i := range k {
		k[i] = seed + byte(i)
	}
	return k
}

func newTier(t testing.TB, key primitives.Key, v Variant, n int) *tier {
	t.Helper()
	c, err := NewClient(key, kvstore.New(), v)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	tr := &tier{c: c}
	for i := 0; i < n; i++ {
		tr.stores = append(tr.stores, kvstore.New())
		tr.shards = append(tr.shards, NewServer(tr.stores[i], "obs"))
	}
	return tr
}

func (tr *tier) shardOf(label string) int {
	h := uint32(2166136261)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint32(label[i])) * 16777619
	}
	return int(h % uint32(len(tr.shards)))
}

func (tr *tier) insert(id string, kws ...string) error {
	groups, err := tr.c.Insert("obs", id, kws, tr.shardOf)
	if err != nil {
		return err
	}
	for s, e := range groups {
		if err := tr.shards[s].Insert(*e); err != nil {
			return err
		}
	}
	return nil
}

// search compiles q, runs each shard's token on that shard and resolves the
// union, the way the tactic does.
func (tr *tier) search(q Query) ([]string, error) {
	toks, err := tr.c.Token("obs", q, tr.shardOf)
	if err != nil {
		return nil, err
	}
	var vids []string
	for s, tok := range toks {
		got, err := tr.shards[s].Search(*tok)
		if err != nil {
			return nil, err
		}
		vids = append(vids, got...)
	}
	return tr.c.Resolve("obs", vids)
}

func insert(t testing.TB, c *Client, s *Server, id string, kws ...string) {
	t.Helper()
	if err := (&tier{c: c, shards: []*Server{s}}).insert(id, kws...); err != nil {
		t.Fatalf("Insert: %v", err)
	}
}

func run(t testing.TB, c *Client, s *Server, q Query) []string {
	t.Helper()
	ids, err := (&tier{c: c, shards: []*Server{s}}).search(q)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	return ids
}

func pos(w string) Literal { return Literal{Keyword: w} }
func neg(w string) Literal { return Literal{Keyword: w, Negated: true} }

// seedCorpus inserts a small medical corpus shared by many tests.
func seedCorpus(t testing.TB, c *Client, s *Server) {
	insert(t, c, s, "d1", "status=final", "code=glucose", "interp=high")
	insert(t, c, s, "d2", "status=final", "code=glucose", "interp=normal")
	insert(t, c, s, "d3", "status=draft", "code=glucose", "interp=high")
	insert(t, c, s, "d4", "status=final", "code=insulin", "interp=high")
}

func variants(t *testing.T, f func(t *testing.T, variant Variant)) {
	t.Helper()
	for _, v := range []Variant{Variant2Lev, VariantZMF} {
		t.Run(string(v), func(t *testing.T) { f(t, v) })
	}
}

func TestSingleKeyword(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		got := run(t, c, s, Query{{pos("code=glucose")}})
		if !reflect.DeepEqual(got, []string{"d1", "d2", "d3"}) {
			t.Fatalf("single keyword = %v", got)
		}
	})
}

func TestConjunction(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		got := run(t, c, s, Query{{pos("status=final"), pos("code=glucose")}})
		if !reflect.DeepEqual(got, []string{"d1", "d2"}) {
			t.Fatalf("conjunction = %v", got)
		}
		got = run(t, c, s, Query{{pos("status=final"), pos("code=glucose"), pos("interp=high")}})
		if !reflect.DeepEqual(got, []string{"d1"}) {
			t.Fatalf("3-way conjunction = %v", got)
		}
	})
}

func TestDisjunction(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		got := run(t, c, s, Query{{pos("code=insulin")}, {pos("status=draft")}})
		if !reflect.DeepEqual(got, []string{"d3", "d4"}) {
			t.Fatalf("disjunction = %v", got)
		}
	})
}

func TestNegation(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		// final AND NOT high -> d2
		got := run(t, c, s, Query{{pos("status=final"), neg("interp=high")}})
		if !reflect.DeepEqual(got, []string{"d2"}) {
			t.Fatalf("negation = %v", got)
		}
	})
}

func TestDNFMix(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		// (glucose AND high) OR (insulin) -> d1, d3, d4
		got := run(t, c, s, Query{
			{pos("code=glucose"), pos("interp=high")},
			{pos("code=insulin")},
		})
		if !reflect.DeepEqual(got, []string{"d1", "d3", "d4"}) {
			t.Fatalf("DNF = %v", got)
		}
	})
}

func TestEmptyResults(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		if got := run(t, c, s, Query{{pos("code=never")}}); len(got) != 0 {
			t.Fatalf("unknown keyword = %v", got)
		}
		if got := run(t, c, s, Query{{pos("status=draft"), pos("code=insulin")}}); len(got) != 0 {
			t.Fatalf("unsatisfiable conjunction = %v", got)
		}
	})
}

func TestDeleteHidesDocument(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		if err := c.Delete("obs", "d1"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		got := run(t, c, s, Query{{pos("code=glucose")}})
		if !reflect.DeepEqual(got, []string{"d2", "d3"}) {
			t.Fatalf("after delete = %v", got)
		}
		got = run(t, c, s, Query{{pos("status=final"), pos("interp=high")}})
		if !reflect.DeepEqual(got, []string{"d4"}) {
			t.Fatalf("conjunction after delete = %v", got)
		}
	})
}

func TestUpdateReplacesKeywords(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		// d3 transitions draft -> final: delete + reinsert with new keywords.
		if err := c.Delete("obs", "d3"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		insert(t, c, s, "d3", "status=final", "code=glucose", "interp=high")

		got := run(t, c, s, Query{{pos("status=draft")}})
		if len(got) != 0 {
			t.Fatalf("stale keyword still matches: %v", got)
		}
		got = run(t, c, s, Query{{pos("status=final"), pos("code=glucose")}})
		if !reflect.DeepEqual(got, []string{"d1", "d2", "d3"}) {
			t.Fatalf("after update = %v", got)
		}
	})
}

func TestDeleteUnknownIsNoop(t *testing.T) {
	c, _ := setup(t, Variant2Lev)
	if err := c.Delete("obs", "never-existed"); err != nil {
		t.Fatalf("Delete(unknown): %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	c, _ := setup(t, Variant2Lev)
	if _, err := c.Token("obs", Query{}, SingleShard); err != ErrEmptyQuery {
		t.Fatalf("empty query = %v", err)
	}
	if _, err := c.Token("obs", Query{{neg("a")}}, SingleShard); err != ErrNoPositiveLiteral {
		t.Fatalf("all-negative conjunction = %v", err)
	}
}

func TestBadVariant(t *testing.T) {
	key, _ := primitives.NewRandomKey()
	if _, err := NewClient(key, kvstore.New(), Variant("bogus")); err != ErrBadVariant {
		t.Fatalf("bad variant = %v", err)
	}
}

func TestDuplicateKeywordsDeduplicated(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		insert(t, c, s, "d1", "w", "w", "w")
		got := run(t, c, s, Query{{pos("w")}})
		if !reflect.DeepEqual(got, []string{"d1"}) {
			t.Fatalf("dedup = %v", got)
		}
	})
}

func TestVariantsAgreeQuick(t *testing.T) {
	// Property: both variants and a plaintext reference evaluator agree on
	// random corpora and random 2-term conjunctive/negated queries.
	key, _ := primitives.NewRandomKey()
	c2, err := NewClient(key, kvstore.New(), Variant2Lev)
	if err != nil {
		t.Fatal(err)
	}
	cz, err := NewClient(key, kvstore.New(), VariantZMF)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(kvstore.New(), "obs")
	sz := NewServer(kvstore.New(), "obs")
	ref := make(map[string]map[string]bool) // id -> keyword set
	nextID := 0

	f := func(kwMask uint8, queryA, queryB uint8, negB bool) bool {
		// Insert a doc with 1-4 keywords drawn from a pool of 6.
		var kws []string
		for b := 0; b < 6; b++ {
			if kwMask&(1<<b) != 0 {
				kws = append(kws, fmt.Sprintf("k%d", b))
			}
		}
		if len(kws) == 0 {
			kws = []string{"k0"}
		}
		id := fmt.Sprintf("d%03d", nextID)
		nextID++
		e2, err := c2.Insert("obs", id, kws, SingleShard)
		if err != nil {
			return false
		}
		for _, e := range e2 {
			if err := s2.Insert(*e); err != nil {
				return false
			}
		}
		ez, err := cz.Insert("obs", id, kws, SingleShard)
		if err != nil {
			return false
		}
		for _, e := range ez {
			if err := sz.Insert(*e); err != nil {
				return false
			}
		}
		ref[id] = make(map[string]bool)
		for _, w := range kws {
			ref[id][w] = true
		}

		wa := fmt.Sprintf("k%d", queryA%6)
		wb := fmt.Sprintf("k%d", queryB%6)
		q := Query{{pos(wa), {Keyword: wb, Negated: negB}}}

		var want []string
		for id, set := range ref {
			if set[wa] && set[wb] != negB {
				want = append(want, id)
			}
		}
		sort.Strings(want)

		got2 := runQuiet(c2, s2, q)
		gotz := runQuiet(cz, sz, q)
		return reflect.DeepEqual(got2, want) && reflect.DeepEqual(gotz, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func runQuiet(c *Client, s *Server, q Query) []string {
	ids, err := (&tier{c: c, shards: []*Server{s}}).search(q)
	if err != nil {
		return nil
	}
	return ids
}

// TestPartitionedMatchesSingleServer drives the sharded placement contract
// directly: the same corpus lands on one server via SingleShard and on
// three servers via a hash of the routing label, and every query — one
// token per shard, results merged — must agree with the single-server run.
// The key is pinned: with a drawn one, all seven labels hash to one shard
// about once in sixty runs and the spread check below fails.
func TestPartitionedMatchesSingleServer(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		single := newTier(t, pinnedKey(0x21), v, 1)
		parted := newTier(t, pinnedKey(0x21), v, 3)

		docs := map[string][]string{
			"d1": {"status=final", "code=glucose", "interp=high"},
			"d2": {"status=final", "code=glucose", "interp=normal"},
			"d3": {"status=draft", "code=glucose", "interp=high"},
			"d4": {"status=final", "code=insulin", "interp=high"},
			"d5": {"status=final"},
		}
		for id, kws := range docs {
			if err := single.insert(id, kws...); err != nil {
				t.Fatalf("Insert(%s): %v", id, err)
			}
			if err := parted.insert(id, kws...); err != nil {
				t.Fatalf("partitioned Insert(%s): %v", id, err)
			}
		}
		touched := 0
		for _, st := range parted.stores {
			if n, _ := st.Len(); n > 0 {
				touched++
			}
		}
		if touched < 2 {
			t.Fatalf("entries landed on %d shards — partitioning is not spreading", touched)
		}

		queries := []Query{
			{{pos("code=glucose")}},
			{{pos("status=final"), pos("code=glucose")}},
			{{pos("status=final"), pos("code=glucose"), pos("interp=high")}},
			{{pos("status=final"), neg("interp=high")}},
			{{pos("status=final"), pos("code=glucose"), neg("interp=high")}},
			{{pos("code=glucose"), pos("interp=high")}, {pos("code=insulin")}},
			{{pos("code=never")}},
			{{pos("status=draft"), pos("code=insulin")}},
		}
		for i, q := range queries {
			want, err := single.search(q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			got, err := parted.search(q)
			if err != nil {
				t.Fatalf("query %d, partitioned: %v", i, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("query %d: partitioned %v != single %v", i, got, want)
			}
		}
	})
}

func TestBucketRouteStableAndScoped(t *testing.T) {
	c, _ := setup(t, Variant2Lev)
	if c.BucketRoute("obs", "w", 0) != c.BucketRoute("obs", "w", 0) {
		t.Fatal("routing label not deterministic")
	}
	if c.BucketRoute("obs", "w", 0) == c.BucketRoute("obs", "x", 0) {
		t.Fatal("distinct keywords share a routing label")
	}
	if c.BucketRoute("obs", "w", 0) == c.BucketRoute("other", "w", 0) {
		t.Fatal("routing label leaks across namespaces")
	}
	if c.BucketRoute("obs", "w", 0) == c.BucketRoute("obs", "w", 1) {
		t.Fatal("distinct spill buckets share a routing label")
	}
}

// TestSpillFansHotKeywordAcrossBuckets drives one keyword past several
// spill thresholds and checks (a) a query anchored at it compiles to one
// ConjToken per shard, carrying that shard's buckets — all three on a
// single server, (b) the union over bucket slices equals the full corpus,
// (c) a cold keyword stays single-bucket, and (d) a conjunction with a cold
// keyword anchors there and reads no global bucket at all.
func TestSpillFansHotKeywordAcrossBuckets(t *testing.T) {
	for _, v := range []Variant{Variant2Lev, VariantZMF} {
		t.Run(string(v), func(t *testing.T) {
			c, s := setup(t, v)
			const docs = SpillThreshold*2 + 5 // 3 buckets
			var want []string
			for i := 0; i < docs; i++ {
				id := fmt.Sprintf("d%03d", i)
				want = append(want, id)
				insert(t, c, s, id, "status=final", fmt.Sprintf("seq=%03d", i))
			}
			if n, _ := c.Buckets("obs", "status=final"); n != 3 {
				t.Fatalf("Buckets(hot) = %d, want 3", n)
			}
			if n, _ := c.Buckets("obs", "seq=000"); n != 1 {
				t.Fatalf("Buckets(cold) = %d, want 1", n)
			}
			toks, err := c.Token("obs", Query{{pos("status=final")}}, SingleShard)
			if err != nil {
				t.Fatal(err)
			}
			if len(toks) != 1 || len(toks[0].Conjunctions) != 1 || len(toks[0].Conjunctions[0].Anchors) != 3 {
				t.Fatalf("hot keyword on one server compiled to %+v, want one ConjToken with 3 anchor buckets", toks)
			}
			spread, err := c.Token("obs", Query{{pos("status=final")}}, func(label string) int { return int(label[0]) })
			if err != nil {
				t.Fatal(err)
			}
			buckets := 0
			for _, tok := range spread {
				if len(tok.Conjunctions) != 1 {
					t.Fatalf("a shard got %d ConjTokens for one conjunction", len(tok.Conjunctions))
				}
				buckets += len(tok.Conjunctions[0].Anchors)
			}
			if buckets != 3 {
				t.Fatalf("%d anchor buckets across %d shards, want 3", buckets, len(spread))
			}
			got := run(t, c, s, Query{{pos("status=final")}})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("spilled union = %v, want all %d docs", got, docs)
			}
			// A conjunction refines across the spill too, from its cold end.
			last := fmt.Sprintf("seq=%03d", docs-1)
			got = run(t, c, s, Query{{pos("status=final"), pos(last)}})
			if fmt.Sprint(got) != fmt.Sprint([]string{fmt.Sprintf("d%03d", docs-1)}) {
				t.Fatalf("conjunction across spill = %v", got)
			}
			toks, err = c.Token("obs", Query{{pos("status=final"), pos(last)}}, SingleShard)
			if err != nil {
				t.Fatal(err)
			}
			ct := toks[0].Conjunctions[0]
			if wantAnchors := map[Variant]int{Variant2Lev: 0, VariantZMF: 1}[v]; len(ct.Anchors) != wantAnchors {
				t.Fatalf("conjunction with a cold keyword carries %d anchor buckets, want %d", len(ct.Anchors), wantAnchors)
			}
		})
	}
}

// TestKVStateVersions: a client's versions and spill counters live in the
// gateway store and survive its reopen.
func TestKVStateVersions(t *testing.T) {
	key, _ := primitives.NewRandomKey()
	dir := filepath.Join(t.TempDir(), "state")
	store, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(key, store, Variant2Lev)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.setVersion("ns", "d1", 3); err != nil {
		t.Fatal(err)
	}
	if err := c.setSpill("ns", "w", 40); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, err = NewClient(key, store, Variant2Lev)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := c.version("ns", "d1"); err != nil || v != 3 {
		t.Fatalf("version = %d, %v", v, err)
	}
	if v, _ := c.version("ns", "absent"); v != 0 {
		t.Fatalf("version(absent) = %d", v)
	}
	if n, err := c.spill("ns", "w"); err != nil || n != 40 {
		t.Fatalf("spill = %d, %v", n, err)
	}
}

func benchInsert(b *testing.B, v Variant) {
	c, s := setup(b, v)
	kws := []string{"a", "b", "c", "d", "e"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := c.Insert("obs", fmt.Sprintf("d%d", i), kws, SingleShard)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range groups {
			if err := s.Insert(*e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkInsert2Lev5Keywords(b *testing.B) { benchInsert(b, Variant2Lev) }
func BenchmarkInsertZMF5Keywords(b *testing.B)  { benchInsert(b, VariantZMF) }

func benchConjunction(b *testing.B, v Variant) {
	c, s := setup(b, v)
	for i := 0; i < 500; i++ {
		kws := []string{"common"}
		if i%10 == 0 {
			kws = append(kws, "rare")
		}
		groups, _ := c.Insert("obs", fmt.Sprintf("d%d", i), kws, SingleShard)
		for _, e := range groups {
			s.Insert(*e)
		}
	}
	q := Query{{pos("common"), pos("rare")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, c, s, q)
	}
}

func BenchmarkConjunction2Lev(b *testing.B) { benchConjunction(b, Variant2Lev) }
func BenchmarkConjunctionZMF(b *testing.B)  { benchConjunction(b, VariantZMF) }

func TestPairCellsShareSealedPayload(t *testing.T) {
	c, s := setup(t, Variant2Lev)
	groups, err := c.Insert("obs", "doc1", []string{"a", "b", "c"}, SingleShard)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	g, ok := groups[0]
	if !ok {
		t.Fatal("no shard-0 group")
	}
	if len(g.CrossPacked) == 0 {
		t.Fatal("no packed pair cells")
	}
	cells := 0
	for _, p := range g.CrossPacked {
		cells += p.Count
		if len(p.Shared) == 0 {
			t.Fatal("packed pair entry lacks shared payload")
		}
		if len(p.Nonce) != emm.SharedNonceLen {
			t.Fatalf("nonce len = %d, want %d", len(p.Nonce), emm.SharedNonceLen)
		}
		// Value dedup: each cell ships a fixed-size key wrap, not a
		// replicated sealed payload.
		if p.ValLen != emm.SharedWrapLen {
			t.Fatalf("ValLen = %d, want wrap size %d", p.ValLen, emm.SharedWrapLen)
		}
		if len(p.Vals) != p.Count*emm.SharedWrapLen {
			t.Fatalf("Vals = %d bytes for %d cells, want %d", len(p.Vals), p.Count, p.Count*emm.SharedWrapLen)
		}
	}
	if want := 3; cells != want { // C(3,2) pairs on a single shard
		t.Fatalf("pair cells = %d, want %d", cells, want)
	}
	if err := s.Insert(*g); err != nil {
		t.Fatalf("server Insert: %v", err)
	}
	got := run(t, c, s, Query{{pos("a"), pos("b")}})
	if !reflect.DeepEqual(got, []string{"doc1"}) {
		t.Fatalf("conjunction over shared pair cells = %v, want [doc1]", got)
	}
}

func TestUnpackRejectsMalformedShared(t *testing.T) {
	mk := func(valLen, nonceLen int) PackedEntry {
		return PackedEntry{
			Count:   1,
			AddrLen: 4,
			ValLen:  valLen,
			Addrs:   make([]byte, 4),
			Vals:    make([]byte, valLen),
			Shared:  []byte("sealed"),
			Nonce:   make([]byte, nonceLen),
		}
	}
	if _, err := UnpackEntries([]PackedEntry{mk(emm.SharedWrapLen+1, emm.SharedNonceLen)}); err == nil {
		t.Fatal("UnpackEntries accepted shared entry with non-wrap ValLen")
	}
	if _, err := UnpackEntries([]PackedEntry{mk(emm.SharedWrapLen, emm.SharedNonceLen-1)}); err == nil {
		t.Fatal("UnpackEntries accepted shared entry with short nonce")
	}
	if _, err := UnpackEntries([]PackedEntry{mk(emm.SharedWrapLen, emm.SharedNonceLen)}); err != nil {
		t.Fatalf("UnpackEntries rejected well-formed shared entry: %v", err)
	}
}
