package biex_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"datablinder/internal/cloud/ring"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	ssebiex "datablinder/internal/sse/biex"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/biex"
	"datablinder/internal/transport"
)

// shardedInstance builds a tactic over n in-process cloud shards (n == 1
// degenerates to the unsharded loopback setup). The returned stores allow
// per-shard index inspection.
func shardedInstance(t *testing.T, reg spi.Registration, n int) (spi.Tactic, *ring.Ring, []*kvstore.Store) {
	t.Helper()
	conns := make([]transport.Conn, n)
	stores := make([]*kvstore.Store, n)
	for i := 0; i < n; i++ {
		mux := transport.NewMux()
		kv := kvstore.New()
		t.Cleanup(func() { kv.Close() })
		biex.RegisterCloud(mux, kv)
		conns[i] = transport.NewLoopback(mux)
		stores[i] = kv
	}
	cloud := ring.New(conns, 0)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := reg.Factory(spi.Binding{
		Schema: "obs", Keys: kp,
		Cloud: cloud,
		Local: kvstore.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst, cloud, stores
}

func instance(t *testing.T, reg spi.Registration) (spi.Tactic, *ring.Ring) {
	t.Helper()
	inst, conn, _ := shardedInstance(t, reg, 1)
	return inst, conn
}

func variants(t *testing.T, f func(t *testing.T, inst spi.Tactic, conn *ring.Ring)) {
	t.Helper()
	for _, reg := range []spi.Registration{biex.Registration2Lev(), biex.RegistrationZMF()} {
		reg := reg
		t.Run(reg.Descriptor.Name, func(t *testing.T) {
			inst, conn := instance(t, reg)
			f(t, inst, conn)
		})
	}
}

func seed(t *testing.T, inst spi.Tactic, conn *ring.Ring) {
	t.Helper()
	ctx := context.Background()
	docs := map[string]map[string]any{
		"d1": {"status": "final", "code": "glucose"},
		"d2": {"status": "final", "code": "insulin"},
		"d3": {"status": "draft", "code": "glucose"},
	}
	for id, fields := range docs {
		if err := spi.Apply(ctx, conn, inst, model.OpInsert, id, fields); err != nil {
			t.Fatalf("insert %s: %v", id, err)
		}
	}
}

func TestCrossFieldConjunction(t *testing.T) {
	variants(t, func(t *testing.T, inst spi.Tactic, conn *ring.Ring) {
		seed(t, inst, conn)
		ids, err := inst.(spi.BoolSearcher).SearchBool(context.Background(), spi.BoolQuery{{
			{Field: "status", Value: "final"},
			{Field: "code", Value: "glucose"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, []string{"d1"}) {
			t.Fatalf("conjunction = %v", ids)
		}
	})
}

func TestDisjunctionAndNegation(t *testing.T) {
	variants(t, func(t *testing.T, inst spi.Tactic, conn *ring.Ring) {
		seed(t, inst, conn)
		ctx := context.Background()
		bs := inst.(spi.BoolSearcher)

		// draft OR insulin.
		ids, err := bs.SearchBool(ctx, spi.BoolQuery{
			{{Field: "status", Value: "draft"}},
			{{Field: "code", Value: "insulin"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, []string{"d2", "d3"}) {
			t.Fatalf("disjunction = %v", ids)
		}

		// glucose AND NOT final.
		ids, err = bs.SearchBool(ctx, spi.BoolQuery{{
			{Field: "code", Value: "glucose"},
			{Field: "status", Value: "final", Negated: true},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, []string{"d3"}) {
			t.Fatalf("negation = %v", ids)
		}
	})
}

func TestEqualityDegeneratesToSingleKeyword(t *testing.T) {
	variants(t, func(t *testing.T, inst spi.Tactic, conn *ring.Ring) {
		seed(t, inst, conn)
		ids, err := inst.(spi.EqSearcher).SearchEq(context.Background(), "code", "glucose")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, []string{"d1", "d3"}) {
			t.Fatalf("eq = %v", ids)
		}
	})
}

func TestDocDeleteSupersedes(t *testing.T) {
	variants(t, func(t *testing.T, inst spi.Tactic, conn *ring.Ring) {
		seed(t, inst, conn)
		ctx := context.Background()
		if err := spi.Apply(ctx, conn, inst, model.OpDelete, "d1", nil); err != nil {
			t.Fatal(err)
		}
		ids, err := inst.(spi.EqSearcher).SearchEq(ctx, "code", "glucose")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, []string{"d3"}) {
			t.Fatalf("after delete = %v", ids)
		}
		// Re-insert with changed fields: only new keywords match.
		if err := spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{
			"status": "amended", "code": "bmi",
		}); err != nil {
			t.Fatal(err)
		}
		ids, _ = inst.(spi.EqSearcher).SearchEq(ctx, "code", "glucose")
		if !reflect.DeepEqual(ids, []string{"d3"}) {
			t.Fatalf("stale keyword after update = %v", ids)
		}
		ids, _ = inst.(spi.EqSearcher).SearchEq(ctx, "code", "bmi")
		if !reflect.DeepEqual(ids, []string{"d1"}) {
			t.Fatalf("new keyword after update = %v", ids)
		}
	})
}

func TestCompactPreservesResults(t *testing.T) {
	variants(t, func(t *testing.T, inst spi.Tactic, conn *ring.Ring) {
		ctx := context.Background()
		// 30 docs under one hot keyword, some deleted before compaction.
		for i := 0; i < 30; i++ {
			id := []string{"dA", "dB", "dC"}[i%3] + string(rune('0'+i/3))
			if err := spi.Apply(ctx, conn, inst, model.OpInsert, id, map[string]any{"code": "glucose"}); err != nil {
				t.Fatal(err)
			}
		}
		spi.Apply(ctx, conn, inst, model.OpDelete, "dA0", nil)
		spi.Apply(ctx, conn, inst, model.OpDelete, "dB3", nil)

		before, err := inst.(spi.EqSearcher).SearchEq(ctx, "code", "glucose")
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.(*biex.Tactic).Compact(ctx, "code", "glucose"); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		after, err := inst.(spi.EqSearcher).SearchEq(ctx, "code", "glucose")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("Compact changed results: %v -> %v", before, after)
		}
		if len(after) != 28 {
			t.Fatalf("results = %d ids, want 28", len(after))
		}
		// Inserts after compaction land in the fresh tail and still match.
		if err := spi.Apply(ctx, conn, inst, model.OpInsert, "post-compact", map[string]any{"code": "glucose"}); err != nil {
			t.Fatal(err)
		}
		final, _ := inst.(spi.EqSearcher).SearchEq(ctx, "code", "glucose")
		if len(final) != 29 {
			t.Fatalf("post-compact insert lost: %d ids", len(final))
		}
		// Compacting an idle keyword is harmless.
		if err := inst.(*biex.Tactic).Compact(ctx, "code", "never-seen"); err != nil {
			t.Fatalf("Compact(empty): %v", err)
		}
	})
}

// shardedPair builds the same variant over 1 shard and over 3 shards and
// seeds both with identical documents.
func shardedPair(t *testing.T, reg spi.Registration, docs map[string]map[string]any) (single, sharded spi.Tactic, stores []*kvstore.Store) {
	t.Helper()
	single, singleConn, _ := shardedInstance(t, reg, 1)
	sharded, shardedConn, stores := shardedInstance(t, reg, 3)
	ctx := context.Background()
	for id, fields := range docs {
		for inst, conn := range map[spi.Tactic]*ring.Ring{single: singleConn, sharded: shardedConn} {
			if err := spi.Apply(ctx, conn, inst, model.OpInsert, id, fields); err != nil {
				t.Fatalf("insert %s: %v", id, err)
			}
		}
	}
	return single, sharded, stores
}

// shardedCorpus is sized so the enum keywords cross the spill threshold:
// 120 docs over 3 statuses put 40 inserts on each status keyword (2 spill
// buckets), so the identity battery exercises multi-bucket anchors, while
// the 4 codes (30 inserts each) and the unique seq keywords stay in
// bucket 0.
func shardedCorpus() map[string]map[string]any {
	docs := make(map[string]map[string]any, 120)
	statuses := []string{"final", "preliminary", "draft"}
	codes := []string{"glucose", "insulin", "bmi", "hr"}
	for i := 0; i < 120; i++ {
		docs[fmt.Sprintf("d%03d", i)] = map[string]any{
			"status": statuses[i%3],
			"code":   codes[i%4],
			"seq":    fmt.Sprintf("s%03d", i), // unique per doc: spreads labels
		}
	}
	return docs
}

// TestShardedMatchesSingleShard is the result-identity battery: every
// boolean query shape — conjunction, disjunction, negation, duplicate
// anchors, empty results — must return the same ids from a 3-shard ring
// as from a single node.
func TestShardedMatchesSingleShard(t *testing.T) {
	for _, reg := range []spi.Registration{biex.Registration2Lev(), biex.RegistrationZMF()} {
		reg := reg
		t.Run(reg.Descriptor.Name, func(t *testing.T) {
			single, sharded, stores := shardedPair(t, reg, shardedCorpus())
			ctx := context.Background()

			queries := map[string]spi.BoolQuery{
				"single keyword": {{{Field: "code", Value: "glucose"}}},
				"conjunction":    {{{Field: "status", Value: "final"}, {Field: "code", Value: "glucose"}}},
				"negation":       {{{Field: "status", Value: "final"}, {Field: "code", Value: "glucose", Negated: true}}},
				"disjunction": {
					{{Field: "status", Value: "draft"}},
					{{Field: "code", Value: "bmi"}},
				},
				"duplicate anchor": {{
					{Field: "status", Value: "final"},
					{Field: "status", Value: "final"},
					{Field: "code", Value: "insulin"},
				}},
				"unsatisfiable repeat": {{
					{Field: "status", Value: "final"},
					{Field: "status", Value: "final", Negated: true},
				}},
				"empty result": {{{Field: "code", Value: "never-indexed"}}},
				"empty conjunction, live disjunct": {
					{{Field: "code", Value: "never-indexed"}, {Field: "status", Value: "final"}},
					{{Field: "code", Value: "hr"}},
				},
			}
			nonEmpty := map[string]bool{
				"single keyword": true, "conjunction": true, "negation": true,
				"disjunction": true, "duplicate anchor": true,
				"empty conjunction, live disjunct": true,
			}
			for name, q := range queries {
				want, err := single.(spi.BoolSearcher).SearchBool(ctx, q)
				if err != nil {
					t.Fatalf("%s single: %v", name, err)
				}
				got, err := sharded.(spi.BoolSearcher).SearchBool(ctx, q)
				if err != nil {
					t.Fatalf("%s sharded: %v", name, err)
				}
				if nonEmpty[name] && len(want) == 0 {
					t.Fatalf("%s: single node returned no results — query exercises nothing", name)
				}
				if !nonEmpty[name] && len(want) != 0 {
					t.Fatalf("%s: expected empty, single node returned %v", name, want)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: sharded %v != single %v", name, got, want)
				}
			}

			// The index must actually be spread: with 120 unique seq keywords
			// every shard gets cells with near certainty.
			spread := 0
			for _, kv := range stores {
				st, err := kv.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st["emm"].Keys+st["zmf"].Keys > 0 {
					spread++
				}
			}
			if spread < 2 {
				t.Errorf("index landed on %d of 3 shards — keyword routing is not spreading", spread)
			}
		})
	}
}

// TestShardedCompactPreservesResults is the Compact routing regression:
// after partitioning, each bucket's repack RPC must land on the shard
// that owns that bucket's cells, or the swap deletes nothing and inserts
// orphans. 80 docs under one keyword put it in 3 spill buckets, so the
// per-bucket sweep is exercised, not just bucket 0.
func TestShardedCompactPreservesResults(t *testing.T) {
	for _, reg := range []spi.Registration{biex.Registration2Lev(), biex.RegistrationZMF()} {
		reg := reg
		t.Run(reg.Descriptor.Name, func(t *testing.T) {
			ctx := context.Background()
			inst, conn, _ := shardedInstance(t, reg, 3)
			for i := 0; i < 80; i++ {
				id := fmt.Sprintf("c%02d", i)
				if err := spi.Apply(ctx, conn, inst, model.OpInsert, id, map[string]any{
					"code": "glucose",
					"seq":  fmt.Sprintf("s%02d", i),
				}); err != nil {
					t.Fatal(err)
				}
			}
			spi.Apply(ctx, conn, inst, model.OpDelete, "c03", nil)
			spi.Apply(ctx, conn, inst, model.OpDelete, "c71", nil) // one delete per end bucket

			before, err := inst.(spi.EqSearcher).SearchEq(ctx, "code", "glucose")
			if err != nil {
				t.Fatal(err)
			}
			if len(before) != 78 {
				t.Fatalf("pre-compact results = %d ids, want 78", len(before))
			}
			if err := inst.(*biex.Tactic).Compact(ctx, "code", "glucose"); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			after, err := inst.(spi.EqSearcher).SearchEq(ctx, "code", "glucose")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("Compact on 3 shards changed results: %v -> %v", before, after)
			}
			// Conjunctions spanning the compacted keyword still refine.
			ids, err := inst.(spi.BoolSearcher).SearchBool(ctx, spi.BoolQuery{{
				{Field: "code", Value: "glucose"},
				{Field: "seq", Value: "s05"},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids, []string{"c05"}) {
				t.Fatalf("post-compact conjunction = %v", ids)
			}
		})
	}
}

// TestNegatedOnlyConjunctionRejected asserts ErrNoPositiveLiteral
// surfaces identically regardless of ring size. The engine's planner
// never sends such a query (it falls back to plaintext filtering), so the
// tactic API is exercised directly.
func TestNegatedOnlyConjunctionRejected(t *testing.T) {
	for _, reg := range []spi.Registration{biex.Registration2Lev(), biex.RegistrationZMF()} {
		for _, n := range []int{1, 3} {
			reg, n := reg, n
			t.Run(fmt.Sprintf("%s/%d-shard", reg.Descriptor.Name, n), func(t *testing.T) {
				inst, _, _ := shardedInstance(t, reg, n)
				_, err := inst.(spi.BoolSearcher).SearchBool(context.Background(), spi.BoolQuery{{
					{Field: "status", Value: "final", Negated: true},
				}})
				if !errors.Is(err, ssebiex.ErrNoPositiveLiteral) {
					t.Fatalf("negated-only conjunction: err = %v, want ErrNoPositiveLiteral", err)
				}
			})
		}
	}
}

// failingConn fails the n-th shard batch carrying a biex insert observed
// across all wrapped connections, making partial-failure deterministic
// regardless of which shards a document's batches land on.
type failingConn struct {
	transport.Conn
	counter *atomic.Int64
	failAt  int64
}

func (f *failingConn) Call(ctx context.Context, service, method string, args, reply any) error {
	if calls, ok := args.([]transport.BatchCall); ok && service == transport.BatchService &&
		calls[0].Service == biex.Service && calls[0].Method == "insert" {
		if f.counter.Add(1) == f.failAt {
			return errors.New("injected shard failure")
		}
	}
	return f.Conn.Call(ctx, service, method, args, reply)
}

// TestInsertCompensatesOnPartialFailure: when one shard's insert batch
// fails, the gateway supersedes the version it just indexed, so the
// surviving shards' cells can never surface the document.
func TestInsertCompensatesOnPartialFailure(t *testing.T) {
	for _, reg := range []spi.Registration{biex.Registration2Lev(), biex.RegistrationZMF()} {
		reg := reg
		t.Run(reg.Descriptor.Name, func(t *testing.T) {
			ctx := context.Background()
			var counter atomic.Int64
			conns := make([]transport.Conn, 3)
			for i := range conns {
				mux := transport.NewMux()
				kv := kvstore.New()
				t.Cleanup(func() { kv.Close() })
				biex.RegisterCloud(mux, kv)
				conns[i] = &failingConn{Conn: transport.NewLoopback(mux), counter: &counter, failAt: 1}
			}
			kp, err := keys.NewRandomStore()
			if err != nil {
				t.Fatal(err)
			}
			conn := ring.New(conns, 0)
			inst, err := reg.Factory(spi.Binding{Schema: "obs", Keys: kp, Cloud: conn, Local: kvstore.New()})
			if err != nil {
				t.Fatal(err)
			}

			// First insert: the very first batch RPC fails; the others (if
			// any) may have landed. The call must report the failure...
			fields := map[string]any{"status": "final", "code": "glucose", "seq": "s00"}
			if err := spi.Apply(ctx, conn, inst, model.OpInsert, "doomed", fields); err == nil {
				t.Fatal("insert with failing shard: want error, got nil")
			}
			// ...and the partially indexed document must never surface.
			for _, kw := range []string{"final", "glucose"} {
				field := map[string]string{"final": "status", "glucose": "code"}[kw]
				ids, err := inst.(spi.EqSearcher).SearchEq(ctx, field, kw)
				if err != nil {
					t.Fatalf("SearchEq(%s): %v", kw, err)
				}
				if len(ids) != 0 {
					t.Fatalf("partially inserted doc surfaced under %s=%s: %v", field, kw, ids)
				}
			}
			// Retrying the insert succeeds (no further injected failures) and
			// the document becomes fully searchable under a fresh version.
			if err := spi.Apply(ctx, conn, inst, model.OpInsert, "doomed", fields); err != nil {
				t.Fatalf("retry insert: %v", err)
			}
			ids, err := inst.(spi.BoolSearcher).SearchBool(ctx, spi.BoolQuery{{
				{Field: "status", Value: "final"},
				{Field: "code", Value: "glucose"},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids, []string{"doomed"}) {
				t.Fatalf("after retry = %v", ids)
			}
		})
	}
}

func TestVariantsShareCloudWithoutInterference(t *testing.T) {
	// Both variants on the same schema and cloud store must not collide
	// (distinct namespaces + distinct derived keys).
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	biex.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	binding := spi.Binding{Schema: "obs", Keys: kp, Cloud: ring.Of(transport.NewLoopback(mux)), Local: kvstore.New()}
	i2, err := biex.Registration2Lev().Factory(binding)
	if err != nil {
		t.Fatal(err)
	}
	iz, err := biex.RegistrationZMF().Factory(binding)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := spi.Apply(ctx, binding.Cloud, i2, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	// ZMF variant never saw d1.
	ids, err := iz.(spi.EqSearcher).SearchEq(ctx, "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("variant leakage: %v", ids)
	}
	ids, _ = i2.(spi.EqSearcher).SearchEq(ctx, "f", "v")
	if !reflect.DeepEqual(ids, []string{"d1"}) {
		t.Fatalf("2Lev lost its entry: %v", ids)
	}
}
