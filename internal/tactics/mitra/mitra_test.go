package mitra_test

import (
	"context"
	"datablinder/internal/cloud/ring"
	"reflect"
	"sync"
	"testing"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/mitra"
	"datablinder/internal/transport"
)

type env struct {
	binding spi.Binding
}

func newEnv(t *testing.T) env {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	mitra.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	return env{binding: spi.Binding{
		Schema: "obs", Keys: kp,
		Cloud: ring.Of(transport.NewLoopback(mux)),
		Local: local,
	}}
}

func instance(t *testing.T, e env) spi.Tactic {
	t.Helper()
	inst, err := mitra.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestDeleteThenReinsert(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	es := inst.(spi.EqSearcher)

	spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"subject": "alice"})
	spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d2", map[string]any{"subject": "alice"})
	spi.Apply(ctx, e.binding.Cloud, inst, model.OpDelete, "d1", map[string]any{"subject": "alice"})
	ids, err := es.SearchEq(ctx, "subject", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"d2"}) {
		t.Fatalf("after delete = %v", ids)
	}
	spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"subject": "alice"})
	ids, _ = es.SearchEq(ctx, "subject", "alice")
	if len(ids) != 2 {
		t.Fatalf("after re-insert = %v", ids)
	}
}

func TestStateSharedAcrossInstances(t *testing.T) {
	// Counters live in the gateway kvstore: a second instance over the
	// same store continues the sequence.
	e := newEnv(t)
	ctx := context.Background()
	inst1 := instance(t, e)
	spi.Apply(ctx, e.binding.Cloud, inst1, model.OpInsert, "d1", map[string]any{"f": "v"})

	inst2 := instance(t, e)
	spi.Apply(ctx, e.binding.Cloud, inst2, model.OpInsert, "d2", map[string]any{"f": "v"})
	ids, err := inst2.(spi.EqSearcher).SearchEq(ctx, "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("cross-instance search = %v", ids)
	}
}

func TestConcurrentInsertsSameKeyword(t *testing.T) {
	// The atomic counter reservation must prevent cell collisions when
	// many goroutines update one keyword.
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	var wg sync.WaitGroup
	const n = 64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := "doc-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, id, map[string]any{"f": "shared"}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ids, err := inst.(spi.EqSearcher).SearchEq(ctx, "f", "shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("concurrent inserts lost cells: %d/%d survived", len(ids), n)
	}
}

func TestEmptyKeywordNoRPC(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ids, err := inst.(spi.EqSearcher).SearchEq(context.Background(), "f", "never")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("empty keyword = %v", ids)
	}
}
