package tactics_test

// Shared SPI conformance tests: every registered tactic must honor the
// contract the engine relies on — idempotent setup, insert→search
// round-trips for the operations it advertises, and clean deletion
// semantics. Tactic-specific behaviour is covered in each tactic's own
// test file.

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// newBinding builds a binding over a fresh cloud mux + stores.
func newBinding(t testing.TB, schema string) spi.Binding {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	tactics.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	return spi.Binding{
		Schema: schema,
		Keys:   kp,
		Cloud:  transport.NewLoopback(mux),
		Local:  local,
	}
}

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
	if err := inst.Setup(context.Background()); err != nil {
		t.Fatalf("setup(%s): %v", name, err)
	}
	return inst
}

func insertValue(t testing.TB, conn transport.Conn, inst spi.Tactic, field, docID string, value any) {
	t.Helper()
	if err := spi.Apply(context.Background(), conn, inst, model.OpInsert, docID, map[string]any{field: value}); err != nil {
		t.Fatalf("insert: %v", err)
	}
}

func deleteValue(t testing.TB, conn transport.Conn, inst spi.Tactic, field, docID string, value any) {
	t.Helper()
	if err := spi.Apply(context.Background(), conn, inst, model.OpDelete, docID, map[string]any{field: value}); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

func searchEq(t testing.TB, inst spi.Tactic, field string, value any) []string {
	t.Helper()
	ids, err := inst.(spi.EqSearcher).SearchEq(context.Background(), field, value)
	if err != nil {
		t.Fatalf("SearchEq: %v", err)
	}
	sort.Strings(ids)
	return ids
}

// eqValue returns a value of the right type for the tactic (numeric-only
// tactics index int64s).
func eqValue(d spi.Descriptor, i int) any {
	if d.NumericOnly {
		return int64(100 + i)
	}
	return fmt.Sprintf("val-%d", i)
}

// TestEqualityConformance exercises insert -> search -> delete -> search
// for every tactic that advertises equality search.
func TestEqualityConformance(t *testing.T) {
	registry, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range registry.Descriptors() {
		if !d.SupportsOp(model.OpEquality) {
			continue
		}
		d := d
		t.Run(d.Name, func(t *testing.T) {
			b := newBinding(t, "conf")
			inst := instantiate(t, d.Name, b)

			v0, v1 := eqValue(d, 0), eqValue(d, 1)
			insertValue(t, b.Cloud, inst, "f", "d1", v0)
			insertValue(t, b.Cloud, inst, "f", "d2", v0)
			insertValue(t, b.Cloud, inst, "f", "d3", v1)

			if got := searchEq(t, inst, "f", v0); len(got) != 2 || got[0] != "d1" || got[1] != "d2" {
				t.Fatalf("search(v0) = %v", got)
			}
			if got := searchEq(t, inst, "f", v1); len(got) != 1 || got[0] != "d3" {
				t.Fatalf("search(v1) = %v", got)
			}
			if got := searchEq(t, inst, "f", eqValue(d, 9)); len(got) != 0 {
				t.Fatalf("search(absent) = %v", got)
			}

			if _, ok := inst.(spi.Writer); ok {
				deleteValue(t, b.Cloud, inst, "f", "d1", v0)
				if got := searchEq(t, inst, "f", v0); len(got) != 1 || got[0] != "d2" {
					t.Fatalf("search after delete = %v", got)
				}
			}
		})
	}
}

// TestSetupIdempotent calls Setup twice for every tactic.
func TestSetupIdempotent(t *testing.T) {
	registry, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range registry.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			b := newBinding(t, "idem")
			inst := instantiate(t, name, b)
			if err := inst.Setup(context.Background()); err != nil {
				t.Fatalf("second Setup: %v", err)
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
	// Both schemas share one cloud and one gateway store (as in a real
	// multi-tenant gateway).
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	tactics.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	mk := func(schema string) spi.Binding {
		return spi.Binding{Schema: schema, Keys: kp, Cloud: transport.NewLoopback(mux), Local: local}
	}

	for _, d := range registry.Descriptors() {
		if !d.SupportsOp(model.OpEquality) {
			continue
		}
		d := d
		t.Run(d.Name, func(t *testing.T) {
			bA := mk("tenant-a-" + d.Name)
			instA := instantiate(t, d.Name, bA)
			instB := instantiate(t, d.Name, mk("tenant-b-"+d.Name))
			v := eqValue(d, 0)
			insertValue(t, bA.Cloud, instA, "f", "da", v)
			if got := searchEq(t, instB, "f", v); len(got) != 0 {
				t.Fatalf("tenant B sees tenant A's entry: %v", got)
			}
			if got := searchEq(t, instA, "f", v); len(got) != 1 {
				t.Fatalf("tenant A lost its entry: %v", got)
			}
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
