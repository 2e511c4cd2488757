package ore_test

import (
	"context"
	"datablinder/internal/cloud/ring"
	"reflect"
	"sort"
	"testing"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	opet "datablinder/internal/tactics/ope"
	oret "datablinder/internal/tactics/ore"
	"datablinder/internal/transport"
)

func instance(t *testing.T) (spi.Tactic, *ring.Ring) {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	oret.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	conn := ring.Of(transport.NewLoopback(mux))
	inst, err := oret.New(spi.Binding{Schema: "obs", Keys: kp, Cloud: conn, Local: kvstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	return inst, conn
}

func TestRangeQuery(t *testing.T) {
	inst, conn := instance(t)
	ctx := context.Background()
	for id, v := range map[string]int64{"a": 10, "b": 20, "c": 30, "d": -5} {
		if err := spi.Apply(ctx, conn, inst, model.OpInsert, id, map[string]any{"ts": v}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := inst.(spi.RangeSearcher).SearchRange(ctx, "ts", int64(0), int64(25), true, true)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if !reflect.DeepEqual(ids, []string{"a", "b"}) {
		t.Fatalf("range = %v", ids)
	}
	// Exclusive bounds.
	ids, err = inst.(spi.RangeSearcher).SearchRange(ctx, "ts", int64(10), int64(30), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"b"}) {
		t.Fatalf("exclusive range = %v", ids)
	}
	// Negative values order correctly through the signed embedding.
	ids, err = inst.(spi.RangeSearcher).SearchRange(ctx, "ts", nil, int64(0), true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"d"}) {
		t.Fatalf("negative range = %v", ids)
	}
}

func TestEqualityViaDegenerateRange(t *testing.T) {
	inst, conn := instance(t)
	ctx := context.Background()
	spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"ts": int64(7)})
	spi.Apply(ctx, conn, inst, model.OpInsert, "d2", map[string]any{"ts": int64(8)})
	ids, err := inst.(spi.EqSearcher).SearchEq(ctx, "ts", int64(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"d1"}) {
		t.Fatalf("eq = %v", ids)
	}
}

func TestDeleteByDocID(t *testing.T) {
	// ORE deletion needs no value: the column is keyed by document id.
	inst, conn := instance(t)
	ctx := context.Background()
	spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"ts": int64(5)})
	if err := spi.Apply(ctx, conn, inst, model.OpDelete, "d1", map[string]any{"ts": nil}); err != nil {
		t.Fatal(err)
	}
	ids, err := inst.(spi.RangeSearcher).SearchRange(ctx, "ts", nil, nil, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("deleted entry still found: %v", ids)
	}
}

// TestOPEOREAgree cross-checks the two range tactics on the same data.
func TestOPEOREAgree(t *testing.T) {
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	opet.RegisterCloud(mux, cloudKV)
	oret.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	binding := spi.Binding{Schema: "x", Keys: kp, Cloud: ring.Of(transport.NewLoopback(mux)), Local: kvstore.New()}
	opeInst, err := opet.New(binding)
	if err != nil {
		t.Fatal(err)
	}
	oreInst, err := oret.New(binding)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	values := []int64{-100, -1, 0, 1, 50, 999, 1000}
	for i, v := range values {
		id := string(rune('a' + i))
		if err := spi.Apply(ctx, binding.Cloud, opeInst, model.OpInsert, id, map[string]any{"n": v}); err != nil {
			t.Fatal(err)
		}
		if err := spi.Apply(ctx, binding.Cloud, oreInst, model.OpInsert, id, map[string]any{"n": v}); err != nil {
			t.Fatal(err)
		}
	}
	ranges := [][2]int64{{-100, 0}, {0, 1000}, {-5, 5}, {500, 600}}
	for _, r := range ranges {
		a, err := opeInst.(spi.RangeSearcher).SearchRange(ctx, "n", r[0], r[1], true, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := oreInst.(spi.RangeSearcher).SearchRange(ctx, "n", r[0], r[1], true, true)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(a)
		sort.Strings(b)
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("range %v: OPE=%v ORE=%v", r, a, b)
		}
	}
}
