package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// ledgerSchema is a migration-friendly schema: "amount" is free for the
// planner to move between the equal-leakage range tactics (OPE, ORE),
// "pinned" is a hard operator override, and "quiet" never sees traffic.
func ledgerSchema() *model.Schema {
	mustAnn := func(s string) model.Annotation {
		a, err := model.ParseAnnotation(s)
		if err != nil {
			panic(err)
		}
		return a
	}
	return &model.Schema{
		Name: "ledger",
		Fields: []model.Field{
			{Name: "ref", Type: model.TypeString},
			{Name: "amount", Type: model.TypeFloat, Sensitive: true,
				Annotation: mustAnn("C5, op [I, RG]")},
			{Name: "pinned", Type: model.TypeFloat, Sensitive: true,
				Annotation: mustAnn("C5, op [I, RG], tactic [ORE]")},
			{Name: "quiet", Type: model.TypeFloat, Sensitive: true,
				Annotation: mustAnn("C5, op [I, RG]")},
		},
	}
}

// ledgerEnv builds an engine (optionally reconfigured) with the ledger
// schema registered.
func ledgerEnv(t testing.TB, mutate func(*Config)) *testEnv {
	t.Helper()
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		t.Fatalf("cloud.NewNode: %v", err)
	}
	t.Cleanup(func() { node.Close() })
	ks, err := keys.NewRandomStore()
	if err != nil {
		t.Fatalf("keys: %v", err)
	}
	reg, err := tactics.Registry()
	if err != nil {
		t.Fatalf("tactics.Registry: %v", err)
	}
	local := kvstore.New()
	cfg := Config{
		Keys:     ks,
		Cloud:    transport.NewLoopback(node.Mux),
		Local:    local,
		Registry: reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	engine, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(engine.Close)
	if err := engine.RegisterSchema(context.Background(), ledgerSchema()); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	return &testEnv{engine: engine, node: node, local: local, keys: ks}
}

// reopen builds a second engine over the same stores — a gateway restart.
func reopen(t testing.TB, env *testEnv, mutate func(*Config)) *Engine {
	t.Helper()
	reg, err := tactics.Registry()
	if err != nil {
		t.Fatalf("tactics.Registry: %v", err)
	}
	cfg := Config{
		Keys:     env.keys,
		Cloud:    transport.NewLoopback(env.node.Mux),
		Local:    env.local,
		Registry: reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	engine, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine(reopen): %v", err)
	}
	t.Cleanup(engine.Close)
	if err := engine.LoadSchemas(context.Background()); err != nil {
		t.Fatalf("LoadSchemas: %v", err)
	}
	return engine
}

func ledgerDoc(i int) *model.Document {
	return &model.Document{ID: fmt.Sprintf("d%03d", i), Fields: map[string]any{
		"ref":    fmt.Sprintf("ref-%d", i),
		"amount": float64(i),
		"pinned": float64(i),
	}}
}

func seedLedger(t testing.TB, engine *Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := engine.Insert(context.Background(), "ledger", ledgerDoc(i)); err != nil {
			t.Fatalf("Insert(d%03d): %v", i, err)
		}
	}
}

func rangeIDs(t testing.TB, engine *Engine, lo, hi float64) []string {
	t.Helper()
	ids, err := engine.SearchIDs(context.Background(), "ledger", Between("amount", lo, hi))
	if err != nil {
		t.Fatalf("SearchIDs: %v", err)
	}
	sort.Strings(ids)
	return ids
}

func routed(t testing.TB, engine *Engine, field string, op model.Op) string {
	t.Helper()
	plan, err := engine.Plan("ledger", field)
	if err != nil {
		t.Fatalf("Plan(%s): %v", field, err)
	}
	return plan.ByOp[op]
}

// TestMigrateOnlineMovesRangeIndex re-indexes a field from the classic
// default (OPE) onto ORE and checks query identity across the cutover,
// plus that post-migration writes maintain only the new index.
func TestMigrateOnlineMovesRangeIndex(t *testing.T) {
	env := ledgerEnv(t, nil)
	ctx := context.Background()
	seedLedger(t, env.engine, 40)

	if got := routed(t, env.engine, "amount", model.OpRange); got != "OPE" {
		t.Fatalf("classic default range tactic = %q, want OPE", got)
	}
	before := rangeIDs(t, env.engine, 10, 20)
	if len(before) != 11 {
		t.Fatalf("seed query returned %d ids, want 11: %v", len(before), before)
	}

	if err := env.engine.Migrate(ctx, "ledger", "amount", "ORE"); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := routed(t, env.engine, "amount", model.OpRange); got != "ORE" {
		t.Fatalf("post-migration range tactic = %q, want ORE", got)
	}
	if active := env.engine.MigrationsActive(); len(active) != 0 {
		t.Fatalf("migrations still active after Migrate returned: %v", active)
	}
	if after := rangeIDs(t, env.engine, 10, 20); !reflect.DeepEqual(before, after) {
		t.Fatalf("query identity broken by migration:\n before %v\n after  %v", before, after)
	}

	// The migration window is closed: journal and markers are gone.
	if raw, ok, _ := env.local.Get(migrKey("ledger", "amount")); ok {
		t.Fatalf("migration journal left behind: %s", raw)
	}
	if fields, err := env.local.HFields(markerKey("ledger", "amount")); err == nil && len(fields) != 0 {
		t.Fatalf("%d done-markers left behind", len(fields))
	}

	// New writes land in the new index only.
	if _, err := env.engine.Insert(ctx, "ledger", &model.Document{ID: "fresh", Fields: map[string]any{
		"amount": 15.5, "pinned": 1.0,
	}}); err != nil {
		t.Fatalf("post-migration Insert: %v", err)
	}
	if err := env.engine.Delete(ctx, "ledger", "d012"); err != nil {
		t.Fatalf("post-migration Delete: %v", err)
	}
	want := append([]string{}, before...)
	want = append(want, "fresh")
	sort.Strings(want)
	want = remove(want, "d012")
	if got := rangeIDs(t, env.engine, 10, 20); !reflect.DeepEqual(want, got) {
		t.Fatalf("post-migration mutations not reflected:\n want %v\n got  %v", want, got)
	}
	if env.engine.TacticStats().Migrations != 1 {
		t.Fatalf("Migrations counter = %d, want 1", env.engine.TacticStats().Migrations)
	}
}

func remove(ids []string, id string) []string {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// TestMigratePlanPersistsAcrossRestart: after an online re-index, a fresh
// engine over the same stores must resume the *migrated* plan — not re-run
// selection, which would route queries at an index that no longer matches
// the migrated field's authoritative tactic.
func TestMigratePlanPersistsAcrossRestart(t *testing.T) {
	env := ledgerEnv(t, nil)
	ctx := context.Background()
	seedLedger(t, env.engine, 24)
	before := rangeIDs(t, env.engine, 5, 12)

	if err := env.engine.Migrate(ctx, "ledger", "amount", "ORE"); err != nil {
		t.Fatalf("Migrate: %v", err)
	}

	engine2 := reopen(t, env, nil)
	if got := routed(t, engine2, "amount", model.OpRange); got != "ORE" {
		t.Fatalf("restarted engine range tactic = %q, want persisted ORE", got)
	}
	if after := rangeIDs(t, engine2, 5, 12); !reflect.DeepEqual(before, after) {
		t.Fatalf("query identity broken across restart:\n before %v\n after  %v", before, after)
	}
}

// TestMigrateResumesAfterCrash simulates a gateway that died right after
// journaling a re-index: the restarted engine must finish the migration in
// the background and end up exactly where an uninterrupted one would.
func TestMigrateResumesAfterCrash(t *testing.T) {
	env := ledgerEnv(t, nil)
	seedLedger(t, env.engine, 24)
	before := rangeIDs(t, env.engine, 5, 12)

	// Forge the crash state: journal present, no backfill done.
	f, ok := ledgerSchema().Field("amount")
	if !ok {
		t.Fatal("schema lost the amount field")
	}
	f.Annotation.Tactics = []string{"ORE"}
	target, err := env.engine.registry.Select(f)
	if err != nil {
		t.Fatalf("Select(target): %v", err)
	}
	raw, err := json.Marshal(migrRecord{Field: "amount", Plan: toPersisted(target)})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.local.Set(migrKey("ledger", "amount"), raw); err != nil {
		t.Fatalf("forging journal: %v", err)
	}

	engine2 := reopen(t, env, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := len(engine2.MigrationsActive()) == 0
		_, journaled, _ := env.local.Get(migrKey("ledger", "amount"))
		if done && !journaled && routed(t, engine2, "amount", model.OpRange) == "ORE" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed migration did not finish: active=%v journaled=%v plan=%s",
				engine2.MigrationsActive(), journaled, routed(t, engine2, "amount", model.OpRange))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := rangeIDs(t, engine2, 5, 12); !reflect.DeepEqual(before, after) {
		t.Fatalf("query identity broken by resumed migration:\n before %v\n after  %v", before, after)
	}
}

// TestMigrateDualWriteWindow holds a migration open with the scan throttle
// and drives live traffic through the dual-write window: inserts, an
// update, a delete, a delete and re-insert of a backfilled id, and a
// competing migration attempt.
func TestMigrateDualWriteWindow(t *testing.T) {
	env := ledgerEnv(t, func(cfg *Config) { cfg.MigrateThrottle = 500 * time.Millisecond })
	ctx := context.Background()
	seedLedger(t, env.engine, 30)

	errCh := make(chan error, 1)
	go func() { errCh <- env.engine.Migrate(ctx, "ledger", "amount", "ORE") }()

	deadline := time.Now().Add(5 * time.Second)
	for len(env.engine.MigrationsActive()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("migration window never opened")
		}
		time.Sleep(time.Millisecond)
	}

	// Live traffic inside the window.
	if _, err := env.engine.Insert(ctx, "ledger", &model.Document{ID: "live", Fields: map[string]any{
		"amount": 11.5, "pinned": 1.0,
	}}); err != nil {
		t.Fatalf("Insert during window: %v", err)
	}
	if err := env.engine.Update(ctx, "ledger", &model.Document{ID: "d014", Fields: map[string]any{
		"ref": "ref-14", "amount": 999.0, "pinned": 14.0,
	}}); err != nil {
		t.Fatalf("Update during window: %v", err)
	}
	if err := env.engine.Delete(ctx, "ledger", "d016"); err != nil {
		t.Fatalf("Delete during window: %v", err)
	}
	if err := env.engine.Migrate(ctx, "ledger", "pinned", "OPE"); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("second Migrate during window: err = %v, want ErrMigrationActive", err)
	}
	// Once the scan's first batch has backfilled d005, delete it and insert
	// it again with a value in range: the re-insert must reach the target
	// index although the scan claimed the id.
	for {
		if _, done, err := env.local.HGet(markerKey("ledger", "amount"), []byte("d005")); err != nil {
			t.Fatal(err)
		} else if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the scan never backfilled d005")
		}
		time.Sleep(time.Millisecond)
	}
	if err := env.engine.Delete(ctx, "ledger", "d005"); err != nil {
		t.Fatalf("Delete(d005) during window: %v", err)
	}
	if _, err := env.engine.Insert(ctx, "ledger", &model.Document{ID: "d005", Fields: map[string]any{
		"ref": "ref-5", "amount": 12.5, "pinned": 5.0,
	}}); err != nil {
		t.Fatalf("re-Insert(d005) during window: %v", err)
	}

	if err := <-errCh; err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := routed(t, env.engine, "amount", model.OpRange); got != "ORE" {
		t.Fatalf("post-window range tactic = %q, want ORE", got)
	}
	// d010..d020 were in [10, 20]; d014 moved out, d016 is gone, "live" and
	// the re-inserted d005 are in.
	want := []string{"d005", "d010", "d011", "d012", "d013", "d015", "d017", "d018", "d019", "d020", "live"}
	if got := rangeIDs(t, env.engine, 10, 20); !reflect.DeepEqual(want, got) {
		t.Fatalf("window mutations lost:\n want %v\n got  %v", want, got)
	}
}

// TestMigrateEnforcesCapabilityAndLeakage: an operator move must satisfy
// the same op-coverage and leakage-ceiling rules as selection.
func TestMigrateEnforcesCapabilityAndLeakage(t *testing.T) {
	env := ledgerEnv(t, nil)
	ctx := context.Background()
	// DET cannot serve range queries.
	if err := env.engine.Migrate(ctx, "ledger", "amount", "DET"); err == nil {
		t.Fatal("Migrate onto DET (no RG support) succeeded, want error")
	}

	obsEnv := registeredEnv(t)
	// performer is C1; DET leaks equalities — above the ceiling.
	if err := obsEnv.engine.Migrate(ctx, "observation", "performer", "DET"); err == nil {
		t.Fatal("Migrate above leakage ceiling succeeded, want error")
	}
}

// TestReplanMigratesUnpinnedOnly drives the full adaptive loop with
// synthetic cost evidence: the busy unpinned field migrates to the
// measured-cheaper tactic, the pinned field and the idle field stay put.
func TestReplanMigratesUnpinnedOnly(t *testing.T) {
	env := ledgerEnv(t, func(cfg *Config) { cfg.Planner = true })
	ctx := context.Background()
	engine := env.engine

	// Planner-mode registration picks by priors: ORE's cheap inserts win
	// at an empty corpus.
	if got := routed(t, engine, "amount", model.OpRange); got != "ORE" {
		t.Fatalf("planner initial range tactic = %q, want ORE (cheap by priors)", got)
	}
	if got := routed(t, engine, "pinned", model.OpRange); got != "ORE" {
		t.Fatalf("pinned field tactic = %q, want ORE (pin)", got)
	}

	seedLedger(t, engine, 12)
	before := rangeIDs(t, engine, 3, 9)

	// Synthetic measurements: on this workload ORE's range scans are two
	// orders slower than OPE's. Both sides exceed planner.MinSamples so
	// the comparison is measurement-vs-measurement (no prior calibration
	// noise), and the recorded amounts feed the field's workload rates.
	for i := 0; i < 12; i++ {
		engine.stats.Record("ledger", []string{"amount"}, "ORE", model.OpRange, 80*time.Millisecond)
		engine.stats.Record("ledger", nil, "OPE", model.OpRange, time.Millisecond)
		engine.stats.Record("ledger", nil, "OPE", model.OpInsert, time.Millisecond)
	}

	migrated, err := engine.Replan(ctx)
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if !reflect.DeepEqual(migrated, []string{"ledger.amount"}) {
		t.Fatalf("Replan migrated %v, want [ledger.amount]", migrated)
	}
	if got := routed(t, engine, "amount", model.OpRange); got != "OPE" {
		t.Fatalf("replanned range tactic = %q, want OPE", got)
	}
	if got := routed(t, engine, "pinned", model.OpRange); got != "ORE" {
		t.Fatalf("pinned field moved to %q — pins must override the planner", got)
	}
	if got := routed(t, engine, "quiet", model.OpRange); got != "ORE" {
		t.Fatalf("idle field moved to %q — below the traffic floor it must not churn", got)
	}
	if after := rangeIDs(t, engine, 3, 9); !reflect.DeepEqual(before, after) {
		t.Fatalf("query identity broken by replan:\n before %v\n after  %v", before, after)
	}

	// Stable state: a second pass finds nothing cheaper to move to.
	again, err := engine.Replan(ctx)
	if err != nil {
		t.Fatalf("Replan(again): %v", err)
	}
	if len(again) != 0 {
		t.Fatalf("second Replan migrated %v, want no churn", again)
	}
}
