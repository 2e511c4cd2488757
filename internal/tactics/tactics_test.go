package tactics_test

// Shared SPI conformance tests: every registered tactic must honor the
// contract the engine relies on — idempotent setup, insert→search
// round-trips for the operations it advertises, clean deletion semantics,
// and writes the coalescer can merge — on one shard and on a 3-shard ring,
// each result checked against a plaintext filter over the same documents.
// Tactic-specific behaviour is covered in each tactic's own test file.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"datablinder/internal/cloud/ring"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// newCloud builds an n-shard ring of in-process cloud nodes.
func newCloud(t testing.TB, n int) *ring.Ring {
	t.Helper()
	conns := make([]transport.Conn, n)
	for i := range conns {
		mux := transport.NewMux()
		kv := kvstore.New()
		t.Cleanup(func() { kv.Close() })
		tactics.RegisterCloud(mux, kv)
		conns[i] = transport.NewLoopback(mux)
	}
	return ring.New(conns, 0)
}

// newBinding builds a binding over a fresh n-shard cloud and gateway store.
func newBinding(t testing.TB, schema string, shards int) spi.Binding {
	t.Helper()
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	return spi.Binding{Schema: schema, Keys: kp, Cloud: newCloud(t, shards), Local: local}
}

// instantiate builds a tactic the way the engine does: factory, then Setup
// when the tactic has one.
func instantiate(t testing.TB, name string, b spi.Binding) spi.Tactic {
	t.Helper()
	registry, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := reg.Factory(b)
	if err != nil {
		t.Fatalf("factory(%s): %v", name, err)
	}
	if p, ok := inst.(spi.Provisioner); ok {
		if err := p.Setup(context.Background()); err != nil {
			t.Fatalf("setup(%s): %v", name, err)
		}
	}
	return inst
}

// shardCounts runs f on a 1-shard and on a 3-shard ring.
func shardCounts(t *testing.T, f func(t *testing.T, shards int)) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shard", n), func(t *testing.T) { f(t, n) })
	}
}

func apply(t testing.TB, b spi.Binding, inst spi.Tactic, op model.Op, docID string, values map[string]any) {
	t.Helper()
	if err := spi.Apply(context.Background(), b.Cloud, inst, op, docID, values); err != nil {
		t.Fatalf("%s %s: %v", string(op), docID, err)
	}
}

func searchEq(t testing.TB, inst spi.Tactic, field string, value any) []string {
	t.Helper()
	ids, err := inst.(spi.EqSearcher).SearchEq(context.Background(), field, value)
	if err != nil {
		t.Fatalf("SearchEq: %v", err)
	}
	return sorted(ids)
}

func sorted(ids []string) []string {
	sort.Strings(ids)
	return ids
}

// oracle is the plaintext view of one field: document id → value.
type oracle map[string]any

// where returns the ids whose value satisfies keep, sorted.
func (o oracle) where(keep func(v any) bool) []string {
	var ids []string
	for id, v := range o {
		if keep(v) {
			ids = append(ids, id)
		}
	}
	return sorted(ids)
}

func sameIDs(got, want []string) bool {
	return fmt.Sprint(got) == fmt.Sprint(want)
}

// eqValue returns a value of the right type for the tactic (numeric-only
// tactics index int64s).
func eqValue(d spi.Descriptor, i int) any {
	if d.NumericOnly {
		return int64(100 + i)
	}
	return fmt.Sprintf("val-%d", i)
}

// TestEqualityConformance inserts a corpus, deletes part of it, and checks
// every value's search — and one value never inserted — against the
// plaintext filter, for every tactic that advertises equality search.
func TestEqualityConformance(t *testing.T) {
	registry, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range registry.Descriptors() {
		if !d.SupportsOp(model.OpEquality) {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			shardCounts(t, func(t *testing.T, shards int) {
				b := newBinding(t, "conf", shards)
				inst := instantiate(t, d.Name, b)
				plain := oracle{}
				for i := 0; i < 24; i++ {
					id, v := fmt.Sprintf("d%02d", i), eqValue(d, i%4)
					apply(t, b, inst, model.OpInsert, id, map[string]any{"f": v})
					plain[id] = v
				}
				for i := 0; i < 24; i += 5 {
					id := fmt.Sprintf("d%02d", i)
					apply(t, b, inst, model.OpDelete, id, map[string]any{"f": plain[id]})
					delete(plain, id)
				}
				for i := 0; i < 5; i++ {
					v := eqValue(d, i)
					want := plain.where(func(x any) bool { return x == v })
					if got := searchEq(t, inst, "f", v); !sameIDs(got, want) {
						t.Fatalf("search(%v) = %v, want %v", v, got, want)
					}
				}
			})
		})
	}
}

// TestRangeConformance checks OPE and ORE range queries — open, inclusive
// and exclusive bounds over negative and positive ints and floats —
// against the plaintext filter.
func TestRangeConformance(t *testing.T) {
	type bound struct {
		lo, hi       any
		loInc, hiInc bool
	}
	ints := []bound{
		{nil, nil, false, false},
		{nil, int64(0), false, true},
		{nil, int64(0), false, false},
		{int64(-7), nil, true, false},
		{int64(-7), nil, false, false},
		{int64(-12), int64(9), true, true},
		{int64(-12), int64(9), false, false},
		{int64(4), int64(4), true, true},
		{int64(4), int64(4), true, false},
		{int64(9), int64(-9), true, true},
	}
	floats := []bound{
		{nil, nil, false, false},
		{nil, -0.5, false, true},
		{-4.25, nil, true, false},
		{-4.25, nil, false, false},
		{-7.25, 3.25, true, true},
		{-7.25, 3.25, false, false},
		{0.0, 0.0, true, true},
	}
	less := func(a, b any) bool {
		if x, ok := a.(int64); ok {
			return x < b.(int64)
		}
		return a.(float64) < b.(float64)
	}
	in := func(v any, q bound) bool {
		if q.lo != nil && (less(v, q.lo) || (!q.loInc && v == q.lo)) {
			return false
		}
		return q.hi == nil || !(less(q.hi, v) || (!q.hiInc && v == q.hi))
	}
	for _, name := range []string{"OPE", "ORE"} {
		t.Run(name, func(t *testing.T) {
			shardCounts(t, func(t *testing.T, shards int) {
				b := newBinding(t, "range", shards)
				inst := instantiate(t, name, b)
				plain := map[string]oracle{"i": {}, "x": {}}
				for i := 0; i < 40; i++ {
					id := fmt.Sprintf("d%02d", i)
					values := map[string]any{
						"i": int64(i*37%41) - 20,
						"x": float64(i%13)*1.25 - 7.25,
					}
					apply(t, b, inst, model.OpInsert, id, values)
					plain["i"][id], plain["x"][id] = values["i"], values["x"]
				}
				for i := 3; i < 40; i += 7 {
					id := fmt.Sprintf("d%02d", i)
					apply(t, b, inst, model.OpDelete, id, map[string]any{"i": plain["i"][id], "x": plain["x"][id]})
					delete(plain["i"], id)
					delete(plain["x"], id)
				}
				for field, qs := range map[string][]bound{"i": ints, "x": floats} {
					for _, q := range qs {
						got, err := inst.(spi.RangeSearcher).SearchRange(context.Background(), field, q.lo, q.hi, q.loInc, q.hiInc)
						if err != nil {
							t.Fatalf("%s %+v: %v", field, q, err)
						}
						want := plain[field].where(func(v any) bool { return in(v, q) })
						if got = sorted(got); !sameIDs(got, want) {
							t.Errorf("%s %+v = %v, want %v", field, q, got, want)
						}
					}
				}
			})
		})
	}
}

// TestAggregateConformance checks Paillier sums and averages over subsets
// of documents — including documents that never carried the field and one
// whose value was deleted — against the plaintext.
func TestAggregateConformance(t *testing.T) {
	shardCounts(t, func(t *testing.T, shards int) {
		b := newBinding(t, "agg", shards)
		inst := instantiate(t, "Paillier", b)
		plain := oracle{}
		var all []string
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("d%02d", i)
			all = append(all, id)
			if i%4 == 3 {
				continue // a document without the field
			}
			v := float64(i*7%23)*1.5 - 11.25
			apply(t, b, inst, model.OpInsert, id, map[string]any{"v": v})
			plain[id] = v
		}
		apply(t, b, inst, model.OpDelete, "d05", map[string]any{"v": plain["d05"]})
		delete(plain, "d05")
		subsets := map[string][]string{"all": all, "evens": nil, "without field": {"d03", "d07", "d05"}, "one": {"d10"}}
		for i := 0; i < 30; i += 2 {
			subsets["evens"] = append(subsets["evens"], all[i])
		}
		for name, ids := range subsets {
			sum, n := 0.0, 0
			for _, id := range ids {
				if v, ok := plain[id]; ok {
					sum += v.(float64)
					n++
				}
			}
			avg := 0.0
			if n > 0 {
				avg = sum / float64(n)
			}
			for agg, want := range map[model.Agg]float64{model.AggSum: sum, model.AggAvg: avg} {
				got, err := inst.(spi.Aggregator).Aggregate(context.Background(), "v", agg, ids)
				if err != nil {
					t.Fatalf("%s %s: %v", name, string(agg), err)
				}
				if math.Abs(got-want) > 1e-6 {
					t.Errorf("%s %s = %v, want %v", name, string(agg), got, want)
				}
			}
		}
	})
}

// TestPreparedMutationsAreQueuedWrites checks every mutation a tactic
// prepares for an insert and for a delete: its method's codec has no reply,
// so the coalescer merges it, and its args survive an encode/decode round
// trip. A shared codec registered with a reply, or a method left without a
// codec, fails here before it reaches the wire.
func TestPreparedMutationsAreQueuedWrites(t *testing.T) {
	registry, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range registry.Descriptors() {
		t.Run(d.Name, func(t *testing.T) {
			b := newBinding(t, "writes", 3)
			inst := instantiate(t, d.Name, b)
			values := map[string]any{"f": eqValue(d, 0), "g": eqValue(d, 1)}
			// Versioned tactics ship nothing to delete a document they never
			// indexed.
			apply(t, b, inst, model.OpInsert, "d1", values)
			var muts []spi.Mutation
			for _, op := range []model.Op{model.OpInsert, model.OpDelete} {
				var ws spi.WriteSet
				if err := inst.Prepare(&ws, op, "d1", []string{"f", "g"}, values); err != nil {
					t.Fatalf("prepare %s: %v", string(op), err)
				}
				muts = append(muts, ws.Mutations...)
			}
			if len(muts) == 0 {
				t.Fatal("no mutations prepared")
			}
			for _, m := range muts {
				name := m.Service + "." + m.Method
				codec := transport.LookupCodec(name)
				if codec == nil {
					t.Fatalf("%s has no codec", name)
				}
				if codec.NewReply != nil {
					t.Errorf("%s has a reply codec: the coalescer would not merge it", name)
				}
				enc, err := codec.EncodeArgs(nil, m.Args)
				if err != nil {
					t.Fatalf("%s: encode: %v", name, err)
				}
				args := codec.NewArgs()
				if err := codec.DecodeArgs(enc, args); err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				if again, err := codec.EncodeArgs(nil, args); err != nil || !bytes.Equal(again, enc) {
					t.Fatalf("%s: args do not round-trip (%v):\n  %x\n  %x", name, err, enc, again)
				}
			}
		})
	}
}

// TestSetupIdempotent runs Setup twice for every tactic that has one.
func TestSetupIdempotent(t *testing.T) {
	registry, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			inst := instantiate(t, name, newBinding(t, "idem", 1))
			if p, ok := inst.(spi.Provisioner); ok {
				if err := p.Setup(context.Background()); err != nil {
					t.Fatalf("second Setup: %v", err)
				}
			}
		})
	}
}

// TestSchemaIsolation verifies two tactic instances on different schemas
// never see each other's entries.
func TestSchemaIsolation(t *testing.T) {
	registry, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range registry.Descriptors() {
		if !d.SupportsOp(model.OpEquality) {
			continue
		}
		t.Run(d.Name, func(t *testing.T) {
			shardCounts(t, func(t *testing.T, shards int) {
				// Both schemas share one cloud and one gateway store (as in a
				// real multi-tenant gateway).
				bA := newBinding(t, "tenant-a", shards)
				bB := bA
				bB.Schema = "tenant-b"
				instA := instantiate(t, d.Name, bA)
				instB := instantiate(t, d.Name, bB)
				v := eqValue(d, 0)
				apply(t, bA, instA, model.OpInsert, "da", map[string]any{"f": v})
				if got := searchEq(t, instB, "f", v); len(got) != 0 {
					t.Fatalf("tenant B sees tenant A's entry: %v", got)
				}
				if got := searchEq(t, instA, "f", v); len(got) != 1 {
					t.Fatalf("tenant A lost its entry: %v", got)
				}
			})
		})
	}
}

// TestDescriptorOpLeakageWithinOverall checks each tactic's per-operation
// leakage never exceeds its declared overall leakage (the overall level is
// the weakest operation by definition).
func TestDescriptorOpLeakageWithinOverall(t *testing.T) {
	registry, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range registry.Descriptors() {
		if d.Leakage == 0 {
			continue // aggregate-only
		}
		for _, ol := range d.OpLeakage {
			if ol.Leakage > d.Leakage {
				t.Errorf("%s: op %s leaks %s > overall %s", d.Name, string(ol.Op), ol.Leakage, d.Leakage)
			}
		}
	}
}
