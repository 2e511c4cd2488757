package biex

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"datablinder/internal/sse/emm"
)

// plainIndex is the plaintext oracle: live document id -> keyword set.
type plainIndex map[string]map[string]bool

func (p plainIndex) set(id string, kws []string) {
	p[id] = make(map[string]bool, len(kws))
	for _, w := range kws {
		p[id][w] = true
	}
}

func (p plainIndex) search(q Query) []string {
	var out []string
	for id, kws := range p {
		for _, conj := range q {
			match := true
			for _, l := range conj {
				if kws[l.Keyword] == l.Negated {
					match = false
					break
				}
			}
			if match {
				out = append(out, id)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestRandomDNFMatchesOracle is the differential test of the conjunction
// walk: seeded random DNF queries — one to four literals per conjunction,
// negations, repeated and never-inserted keywords, anchors spilled over at
// least three buckets — interleaved with inserts, updates and deletes, on a
// 3-shard partitioned index, a single server and a plaintext oracle. All
// three must agree on every query, for both variants.
func TestRandomDNFMatchesOracle(t *testing.T) {
	hot := []string{"hot=a", "hot=b", "hot=c"}
	mid := []string{"mid=a", "mid=b", "mid=c", "mid=d", "mid=e"}
	never := []string{"never=a", "never=b"}
	variants(t, func(t *testing.T, v Variant) {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			single := newTier(t, pinnedKey(byte(seed)), v, 1)
			parted := newTier(t, pinnedKey(byte(seed)), v, 3)
			oracle := make(plainIndex)
			nextDoc := 0

			randomKeywords := func(id string) []string {
				kws := []string{"uniq=" + id}
				for _, w := range hot {
					if rng.Intn(10) < 7 {
						kws = append(kws, w)
					}
				}
				for _, w := range mid {
					if rng.Intn(10) < 2 {
						kws = append(kws, w)
					}
				}
				return kws
			}
			put := func(id string) {
				kws := randomKeywords(id)
				for _, tr := range []*tier{single, parted} {
					if err := tr.insert(id, kws...); err != nil {
						t.Fatalf("seed %d: insert %s: %v", seed, id, err)
					}
				}
				oracle.set(id, kws)
			}
			drop := func(id string) {
				for _, tr := range []*tier{single, parted} {
					if err := tr.c.Delete("obs", id); err != nil {
						t.Fatalf("seed %d: delete %s: %v", seed, id, err)
					}
				}
				delete(oracle, id)
			}
			liveDoc := func() string {
				ids := make([]string, 0, len(oracle))
				for id := range oracle {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				return ids[rng.Intn(len(ids))]
			}
			randomLiteral := func() Literal {
				var w string
				switch r := rng.Intn(20); {
				case r < 8:
					w = hot[rng.Intn(len(hot))]
				case r < 15:
					w = mid[rng.Intn(len(mid))]
				case r < 18:
					w = "uniq=" + fmt.Sprintf("d%04d", rng.Intn(nextDoc)) // possibly deleted
				default:
					w = never[rng.Intn(len(never))]
				}
				return Literal{Keyword: w, Negated: rng.Intn(3) == 0}
			}
			randomQuery := func() Query {
				q := make(Query, 1+rng.Intn(3))
				for i := range q {
					conj := make([]Literal, 1+rng.Intn(4))
					for j := range conj {
						conj[j] = randomLiteral()
					}
					if rng.Intn(4) == 0 { // a repeated keyword, in either polarity
						conj = append(conj, Literal{Keyword: conj[0].Keyword, Negated: rng.Intn(2) == 0})
					}
					conj[rng.Intn(len(conj))].Negated = false // the IEX anchor requirement
					q[i] = conj
				}
				return q
			}

			for ; nextDoc < 160; nextDoc++ {
				put(fmt.Sprintf("d%04d", nextDoc))
			}
			for _, w := range hot {
				if n, _ := parted.c.Buckets("obs", w); n < 3 {
					t.Fatalf("seed %d: %s spans %d spill buckets, want >= 3", seed, w, n)
				}
			}
			queries := 0
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(20); {
				case r < 3:
					put(fmt.Sprintf("d%04d", nextDoc))
					nextDoc++
				case r < 5: // update: supersede, then index the new keyword set
					id := liveDoc()
					drop(id)
					put(id)
				case r < 6:
					drop(liveDoc())
				default:
					q := randomQuery()
					want := oracle.search(q)
					for name, tr := range map[string]*tier{"single server": single, "3 shards": parted} {
						got, err := tr.search(q)
						if err != nil {
							t.Fatalf("seed %d step %d: %s: search %v: %v", seed, step, name, q, err)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("seed %d step %d: %s: %v\n  got  %v\n  want %v", seed, step, name, q, got, want)
						}
					}
					queries++
				}
			}
			if queries < 200 {
				t.Fatalf("seed %d ran %d queries", seed, queries)
			}
		}
	})
}

// benchShape loads the gated benchmark's rich_query corpus shape — 3 000
// documents of six boolean keywords: eight codes, five statuses and four
// interpretations in rotation, three values unique to the document — on a
// single server and on three shards under one pinned key.
func benchShape(t testing.TB) (single, parted *tier) {
	t.Helper()
	benchShapeOnce.Do(func() { benchShapeSingle, benchShapeParted = loadBenchShape(t) })
	if benchShapeSingle == nil {
		t.Fatal("the benchmark-shaped corpus failed to load in an earlier test")
	}
	return benchShapeSingle, benchShapeParted
}

// The corpus is loaded once and only searched afterwards.
var (
	benchShapeOnce                     sync.Once
	benchShapeSingle, benchShapeParted *tier
)

func loadBenchShape(t testing.TB) (single, parted *tier) {
	single = newTier(t, pinnedKey(0x40), Variant2Lev, 1)
	parted = newTier(t, pinnedKey(0x40), Variant2Lev, 3)
	for i := 0; i < 3000; i++ {
		id := fmt.Sprintf("obs-%06d", i)
		kws := []string{
			fmt.Sprintf("code=c%d", i%8),
			fmt.Sprintf("status=s%d", i/8%5),
			fmt.Sprintf("interpretation=i%d", i/40%4),
			fmt.Sprintf("effective=%d", 1_600_000_000+i*3600),
			fmt.Sprintf("issued=%d", 1_600_000_900+i*3600),
			fmt.Sprintf("value=%d.%02d", 40+i%90, i%97),
		}
		for _, tr := range []*tier{single, parted} {
			if err := tr.insert(id, kws...); err != nil {
				t.Fatalf("insert %s: %v", id, err)
			}
		}
	}
	return single, parted
}

// multimapStats sums the tier's per-shard search counters.
func (tr *tier) multimapStats() (global, cross emm.ServerStats) {
	for _, s := range tr.shards {
		g, x := s.global.Stats(), s.cross.Stats()
		global.Probes += g.Probes
		global.Opens += g.Opens
		cross.Probes += x.Probes
		cross.Opens += x.Opens
	}
	return global, cross
}

// TestConjunctionWalkCounts pins the mechanism with counts that repeat
// exactly. The benchmark's `code ∧ status` (375 and 600 documents, 75 in
// both) anchors at the code, whose twelve spill buckets sit on all three
// shards, and is answered from the 75-cell pair list alone: no global cell
// is probed, and each shard probes the pair list once — 3 × 75 = 225 probes
// and 128 opens, in place of the 1 275 probes and 846 opens that one walk
// per bucket (global bucket + whole pair list, twelve times) cost.
func TestConjunctionWalkCounts(t *testing.T) {
	single, parted := benchShape(t)
	q := Query{{pos("code=c0"), pos("status=s0")}}

	anchorShards := make(map[int]bool)
	buckets, err := parted.c.Buckets("obs", "code=c0")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < buckets; b++ {
		anchorShards[parted.shardOf(parted.c.BucketRoute("obs", "code=c0", uint64(b)))] = true
	}
	if buckets != 12 || len(anchorShards) != 3 {
		t.Fatalf("code=c0 spans %d buckets on %d shards, want 12 on 3", buckets, len(anchorShards))
	}

	want, err := single.search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 75 {
		t.Fatalf("single server returned %d ids, want 75", len(want))
	}
	g0, x0 := parted.multimapStats()
	got, err := parted.search(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("3 shards returned %d ids, single server %d", len(got), len(want))
	}
	g1, x1 := parted.multimapStats()
	if g1 != g0 {
		t.Errorf("global multimap: %d probes and %d opens for a conjunction with a positive pair constraint, want 0",
			g1.Probes-g0.Probes, g1.Opens-g0.Opens)
	}
	if probes := x1.Probes - x0.Probes; probes != 225 {
		t.Errorf("cross multimap probes = %d, want 225 (3 anchor shards × 75 pair cells)", probes)
	}
	// Every pair cell is on one or two of the three shards and each copy is
	// opened exactly once: under this key, the 75 cells plus the 53 whose
	// second replica sits on another shard.
	if opens := x1.Opens - x0.Opens; opens != 128 {
		t.Errorf("cross multimap opens = %d, want 128", opens)
	}

	// A negated literal needs the anchor's global cells (see the package
	// comment), and a single keyword has nothing else to read.
	for _, q := range []Query{
		{{pos("code=c0"), pos("status=s0"), neg("interpretation=i1")}},
		{{pos("code=c0")}},
	} {
		want, err := single.search(q)
		if err != nil {
			t.Fatal(err)
		}
		g0, _ := parted.multimapStats()
		got, err := parted.search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || len(want) == 0 {
			t.Errorf("%v: 3 shards returned %d ids, single server %d", q, len(got), len(want))
		}
		if g1, _ := parted.multimapStats(); g1.Probes-g0.Probes != 375 {
			t.Errorf("%v: global multimap probes = %d, want 375 (each of the anchor's cells once)", q, g1.Probes-g0.Probes)
		}
	}
}

// TestRarestLiteralAnchors: the anchor is the positive literal with the
// fewest inserts, wherever it stands in the conjunction, so a conjunction
// with a rare keyword stays on that keyword's one shard.
func TestRarestLiteralAnchors(t *testing.T) {
	single, parted := benchShape(t)
	const doc = 1234
	unique := fmt.Sprintf("effective=%d", 1_600_000_000+doc*3600)
	status := fmt.Sprintf("status=s%d", doc/8%5)
	for _, q := range []Query{
		{{pos(status), pos(unique)}},
		{{pos(unique), pos(status)}},
		{{neg("code=c7"), pos(status), pos(unique)}},
	} {
		toks, err := parted.c.Token("obs", q, parted.shardOf)
		if err != nil {
			t.Fatal(err)
		}
		if len(toks) != 1 {
			t.Fatalf("%v compiled to tokens for %d shards, want 1", q, len(toks))
		}
		want := parted.shardOf(parted.c.BucketRoute("obs", unique, 0))
		if toks[want] == nil || len(toks[want].Conjunctions) != 1 {
			t.Fatalf("%v: token is not on the rare keyword's shard %d: %v", q, want, toks)
		}
		got, err := parted.search(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := single.search(q)
		if err != nil {
			t.Fatal(err)
		}
		if wantIDs := []string{fmt.Sprintf("obs-%06d", doc)}; !reflect.DeepEqual(got, wantIDs) || !reflect.DeepEqual(ref, wantIDs) {
			t.Errorf("%v = %v on 3 shards, %v on one; want %v", q, got, ref, wantIDs)
		}
	}
	// Equal insert counts: the first positive literal anchors.
	toks, err := parted.c.Token("obs", Query{{pos("never=x"), pos("never=y")}}, parted.shardOf)
	if err != nil {
		t.Fatal(err)
	}
	if want := parted.shardOf(parted.c.BucketRoute("obs", "never=x", 0)); len(toks) != 1 || toks[want] == nil {
		t.Errorf("tie between never-inserted keywords: tokens %v, want one on shard %d", toks, want)
	}
}
