package ope_test

import (
	"context"
	"datablinder/internal/cloud/ring"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/ope"
	"datablinder/internal/transport"
)

func instance(t *testing.T) (spi.Tactic, *ring.Ring) {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	ope.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	conn := ring.Of(transport.NewLoopback(mux))
	inst, err := ope.New(spi.Binding{Schema: "obs", Keys: kp, Cloud: conn, Local: kvstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	return inst, conn
}

func TestRangeQueryBounds(t *testing.T) {
	inst, conn := instance(t)
	ctx := context.Background()
	for _, v := range []int64{10, 20, 30, 40, 50} {
		if err := spi.Apply(ctx, conn, inst, model.OpInsert, string(rune('a'+v/10)), map[string]any{"ts": v}); err != nil {
			t.Fatal(err)
		}
	}
	rs := inst.(spi.RangeSearcher)

	tests := []struct {
		name         string
		lo, hi       any
		loInc, hiInc bool
		want         int
	}{
		{"closed", int64(20), int64(40), true, true, 3},
		{"open", int64(20), int64(40), false, false, 1},
		{"half-open lo", int64(20), int64(40), false, true, 2},
		{"unbounded hi", int64(35), nil, true, true, 2},
		{"unbounded lo", nil, int64(15), true, true, 1},
		{"empty", int64(41), int64(49), true, true, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ids, err := rs.SearchRange(ctx, "ts", tt.lo, tt.hi, tt.loInc, tt.hiInc)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != tt.want {
				t.Fatalf("range = %v, want %d ids", ids, tt.want)
			}
		})
	}
}

func TestResultsComeBackInOrder(t *testing.T) {
	// The OPE index is a sorted set; results arrive in plaintext order,
	// which the engine may rely on for pagination.
	inst, conn := instance(t)
	ctx := context.Background()
	values := map[string]int64{"d3": 30, "d1": 10, "d2": 20}
	for id, v := range values {
		if err := spi.Apply(ctx, conn, inst, model.OpInsert, id, map[string]any{"ts": v}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := inst.(spi.RangeSearcher).SearchRange(ctx, "ts", nil, nil, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"d1", "d2", "d3"}) {
		t.Fatalf("order = %v", ids)
	}
}

func TestFloatRanges(t *testing.T) {
	inst, conn := instance(t)
	ctx := context.Background()
	for id, v := range map[string]float64{"a": -2.5, "b": 0.0, "c": 3.25, "d": 100.0} {
		if err := spi.Apply(ctx, conn, inst, model.OpInsert, id, map[string]any{"val": v}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := inst.(spi.RangeSearcher).SearchRange(ctx, "val", -3.0, 4.0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	if !reflect.DeepEqual(ids, []string{"a", "b", "c"}) {
		t.Fatalf("float range = %v", ids)
	}
}

func TestRejectsNonNumeric(t *testing.T) {
	inst, conn := instance(t)
	if err := spi.Apply(context.Background(), conn, inst, model.OpInsert, "d1", map[string]any{"ts": "tomorrow"}); err == nil {
		t.Fatal("string accepted by numeric tactic")
	}
}

func TestDeleteRemovesFromIndex(t *testing.T) {
	inst, conn := instance(t)
	ctx := context.Background()
	spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"ts": int64(5)})
	if err := spi.Apply(ctx, conn, inst, model.OpDelete, "d1", map[string]any{"ts": int64(5)}); err != nil {
		t.Fatal(err)
	}
	ids, err := inst.(spi.RangeSearcher).SearchRange(ctx, "ts", nil, nil, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("deleted entry still indexed: %v", ids)
	}
}

func TestRangeEqualsPlaintextQuick(t *testing.T) {
	inst, conn := instance(t)
	ctx := context.Background()
	rs := inst.(spi.RangeSearcher)
	stored := map[string]int64{}
	n := 0
	f := func(v int64, loRaw, span uint16) bool {
		id := string(rune('A'+n%26)) + string(rune('0'+n%10)) + string(rune('a'+n/260%26))
		n++
		if _, dup := stored[id]; !dup {
			if err := spi.Apply(ctx, conn, inst, model.OpInsert, id, map[string]any{"q": v}); err != nil {
				return false
			}
			stored[id] = v
		}
		lo := int64(loRaw) - 32768
		hi := lo + int64(span)
		got, err := rs.SearchRange(ctx, "q", lo, hi, true, true)
		if err != nil {
			return false
		}
		var want []string
		for id, sv := range stored {
			if sv >= lo && sv <= hi {
				want = append(want, id)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
