package sophos_test

import (
	"context"
	"testing"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/sophos"
	"datablinder/internal/transport"
)

type env struct {
	binding spi.Binding
	cloudKV *kvstore.Store
}

func newEnv(t *testing.T) env {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	sophos.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	return env{
		binding: spi.Binding{Schema: "obs", Keys: kp, Cloud: transport.NewLoopback(mux), Local: local},
		cloudKV: cloudKV,
	}
}

func instance(t *testing.T, e env) spi.Tactic {
	t.Helper()
	inst, err := sophos.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(context.Background()); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return inst
}

func TestOperationsRequireSetup(t *testing.T) {
	e := newEnv(t)
	inst, err := sophos.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"f": "v"}); err == nil {
		t.Fatal("Insert before Setup succeeded")
	}
	if _, err := inst.(spi.EqSearcher).SearchEq(ctx, "f", "v"); err == nil {
		t.Fatal("SearchEq before Setup succeeded")
	}
}

func TestTDPPersistsAcrossInstances(t *testing.T) {
	// A second tactic instance over the same gateway store (gateway
	// restart) must load the persisted RSA trapdoor: entries written by
	// the first instance stay searchable.
	e := newEnv(t)
	ctx := context.Background()
	inst1 := instance(t, e)
	if err := spi.Apply(ctx, e.binding.Cloud, inst1, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}

	inst2 := instance(t, e)
	if err := spi.Apply(ctx, e.binding.Cloud, inst2, model.OpInsert, "d2", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	ids, err := inst2.(spi.EqSearcher).SearchEq(ctx, "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("search across restart = %v", ids)
	}
}

func TestVersionedDeletion(t *testing.T) {
	// Sophos has no native delete; the tactic layers versioned ids on top.
	e := newEnv(t)
	ctx := context.Background()
	inst := instance(t, e)
	es := inst.(spi.EqSearcher)

	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d2", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpDelete, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	ids, err := es.SearchEq(ctx, "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "d2" {
		t.Fatalf("search after delete = %v", ids)
	}

	// Re-insert resurrects under a fresh version.
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	ids, _ = es.SearchEq(ctx, "f", "v")
	if len(ids) != 2 {
		t.Fatalf("search after re-insert = %v", ids)
	}

	// Update semantics: delete + insert under a different value.
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpDelete, "d2", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d2", map[string]any{"f": "w"}); err != nil {
		t.Fatal(err)
	}
	ids, _ = es.SearchEq(ctx, "f", "v")
	if len(ids) != 1 || ids[0] != "d1" {
		t.Fatalf("old value after update = %v", ids)
	}
	ids, _ = es.SearchEq(ctx, "f", "w")
	if len(ids) != 1 || ids[0] != "d2" {
		t.Fatalf("new value after update = %v", ids)
	}
}

func TestDeleteUnknownIsNoop(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	if err := spi.Apply(context.Background(), e.binding.Cloud, inst, model.OpDelete, "ghost", map[string]any{"f": "v"}); err != nil {
		t.Fatalf("Delete(unknown): %v", err)
	}
}

func TestDescriptorMatchesTable2(t *testing.T) {
	d := sophos.Describe()
	if len(d.GatewayInterfaces) != 6 || len(d.CloudInterfaces) != 4 {
		t.Fatalf("SPI counts = %d/%d, want 6/4", len(d.GatewayInterfaces), len(d.CloudInterfaces))
	}
	if d.Challenge != "Key management" {
		t.Fatalf("challenge = %q", d.Challenge)
	}
}
