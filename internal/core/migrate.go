// Online re-indexing: when the planner (or an operator) moves a field to a
// different tactic, the field's index is rebuilt under live traffic —
// background scan + dual-write window + atomic cutover — while queries
// keep answering from the old, fully-maintained index until the new one is
// complete. Crash safety rides on the gateway store's WAL: the target plan
// is journaled before the window opens, per-document done-markers make the
// backfill scan resumable, and the cutover is a single persisted plan swap.

package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"datablinder/internal/conc"
	"datablinder/internal/model"
	"datablinder/internal/spi"
)

// ErrMigrationActive is returned when a second migration targets a schema
// that is already re-indexing (migrations serialize engine-wide).
var ErrMigrationActive = errors.New("core: an online re-index is already running for this schema")

// migScanBatch is how many documents one backfill scan batch claims while
// holding their document locks.
const migScanBatch = 256

// replanHysteresis is the fractional cost advantage a challenger plan needs
// before Replan triggers an online re-index: the new plan must be ≥30%
// cheaper. Guards against plan flapping on noisy measurements.
const replanHysteresis = 0.3

// minReplanOps is the observation floor below which Replan leaves a field
// alone: with almost no traffic there is no workload to optimize for, and
// a migration would be pure churn.
const minReplanOps = 16

func migrKey(schema, field string) []byte { return []byte("migr/" + schema + "/" + field) }

// markerKey is the done-marker hash for one field's backfill: one hash
// field per migrated document id. Markers make the scan resumable after a
// crash — already-marked ids are skipped on resume, bounding duplicate
// re-inserts into the target index to documents that were mid-write when
// the process died.
func markerKey(schema, field string) []byte { return []byte("migrdone/" + schema + "/" + field) }

// migrRecord is the journaled intent of an online re-index. Its presence
// in the gateway store means the target plan is NOT yet authoritative;
// recovery resumes the migration until the record is gone.
type migrRecord struct {
	Field string        `json:"field"`
	Plan  persistedPlan `json:"plan"`
}

// migration is the in-memory dual-write state attached to a schemaRuntime
// while a re-index window is open.
type migration struct {
	field string
	// tactics are the target plan's tactics absent from the current plan —
	// the indexes being backfilled, which every live write must also feed.
	tactics []string
	// instances holds the target tactic instances (set up before the
	// window opened).
	instances map[string]spi.Tactic
	// claims tracks document ids whose target-index state is already
	// authoritative (backfilled by the scan, or written by a live
	// mutation). The scan skips claimed ids; that skip is what keeps
	// non-idempotent tactic protocols (Mitra's counted add/del cells)
	// from double-counting a document.
	claims *sync.Map
	marker []byte
}

// planEqual reports whether two plans route identically.
func planEqual(a, b spi.Plan) bool {
	if len(a.ByOp) != len(b.ByOp) || len(a.ByAgg) != len(b.ByAgg) || len(a.Tactics) != len(b.Tactics) {
		return false
	}
	for op, n := range a.ByOp {
		if b.ByOp[op] != n {
			return false
		}
	}
	for agg, n := range a.ByAgg {
		if b.ByAgg[agg] != n {
			return false
		}
	}
	for i, n := range a.Tactics {
		if b.Tactics[i] != n {
			return false
		}
	}
	return true
}

func subtract(a, b []string) []string {
	have := make(map[string]bool, len(b))
	for _, n := range b {
		have[n] = true
	}
	var out []string
	for _, n := range a {
		if !have[n] {
			out = append(out, n)
		}
	}
	return out
}

// Migrate re-indexes one field onto the given tactic, online: the explicit
// operator entry point (the planner's Replan calls the same machinery).
// The tactic must satisfy the field's protection class — leakage ceilings
// hold for operator-initiated moves too.
func (e *Engine) Migrate(ctx context.Context, schema, field, tactic string) error {
	rt, err := e.runtime(schema)
	if err != nil {
		return err
	}
	f, ok := rt.schema.Field(field)
	if !ok || !f.Sensitive {
		return fmt.Errorf("core: field %q has no plan to migrate", field)
	}
	if rt.mig != nil {
		// Fail fast for the operator API instead of queueing behind the
		// open window (resumed and replanned migrations serialize on the
		// migration lock instead; the post-lock check stays authoritative).
		return ErrMigrationActive
	}
	pinned := f
	pinned.Annotation.Tactics = []string{tactic}
	plan, err := e.registry.Select(pinned)
	if err != nil {
		return err
	}
	return e.migrateField(ctx, schema, field, plan)
}

// MigrationsActive lists in-flight online re-indexes as "schema.field".
func (e *Engine) MigrationsActive() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for name, rt := range e.schemas {
		if rt.mig != nil {
			out = append(out, name+"."+rt.mig.field)
		}
	}
	sort.Strings(out)
	return out
}

// migrateField runs one online re-index to the given target plan:
//
//  1. journal the target plan (crash ⇒ recovery resumes),
//  2. set up the target tactic instances and open the dual-write window
//     by swapping in a runtime with the migration attached,
//  3. drain writers that predate the window (they can't have dual-written),
//  4. backfill: scan every document, feeding unclaimed ones into the
//     target indexes under their document locks, marking each done,
//  5. cut over: persist the new plan, drop the journal and markers, and
//     swap in a runtime that routes the field's queries to the new tactic.
//
// Queries stay consistent throughout: until the cutover swap they are
// answered by the old index, which every live write still maintains; after
// it, by the new index, which the scan plus dual-writes made complete.
func (e *Engine) migrateField(ctx context.Context, schema, field string, target spi.Plan) error {
	e.migMu.Lock()
	defer e.migMu.Unlock()

	rt, err := e.runtime(schema)
	if err != nil {
		return err
	}
	if rt.mig != nil {
		return ErrMigrationActive
	}
	current := rt.plans[field]
	if planEqual(current, target) {
		// Nothing to move; make sure persisted state agrees and is clean.
		if err := e.storePlan(schema, field, target); err != nil {
			return err
		}
		e.local.Del(migrKey(schema, field))
		e.local.Del(markerKey(schema, field))
		return nil
	}

	// Journal intent before anything observable changes.
	raw, err := json.Marshal(migrRecord{Field: field, Plan: toPersisted(target)})
	if err != nil {
		return fmt.Errorf("core: encoding migration record: %w", err)
	}
	if err := e.local.Set(migrKey(schema, field), raw); err != nil {
		return fmt.Errorf("core: journaling migration: %w", err)
	}

	// Instantiate target tactics missing from the running set.
	instances := make(map[string]spi.Tactic)
	for _, name := range target.Tactics {
		inst, ok := rt.instances[name]
		if !ok {
			if inst, err = e.instantiate(ctx, schema, name); err != nil {
				return err
			}
		}
		instances[name] = inst
	}

	// Preload claims from done-markers: on resume, already-backfilled
	// documents must not be fed into counted-cell indexes twice.
	claims := &sync.Map{}
	marker := markerKey(schema, field)
	if fields, err := e.local.HFields(marker); err == nil {
		for _, id := range fields {
			claims.Store(string(id), struct{}{})
		}
	}

	mig := &migration{
		field:     field,
		tactics:   subtract(target.Tactics, current.Tactics),
		instances: instances,
		claims:    claims,
		marker:    marker,
	}

	// Open the dual-write window.
	migRT := rt.clone()
	migRT.mig = mig
	e.mu.Lock()
	if e.schemas[schema] != rt {
		e.mu.Unlock()
		return ErrMigrationActive // lost a race with another swap; caller retries
	}
	e.schemas[schema] = migRT
	e.mu.Unlock()

	finish := func(err error) error {
		// Close the window on failure, leaving journal + markers for resume.
		cur, rerr := e.runtime(schema)
		if rerr == nil && cur.mig == mig {
			clean := cur.clone()
			clean.mig = nil
			e.mu.Lock()
			e.schemas[schema] = clean
			e.mu.Unlock()
		}
		return err
	}

	// Drain writers that predate the window: they saw no migration and
	// could race the scan with un-mirrored writes.
	migRT.writers.Lock()
	migRT.writers.Unlock() //nolint:staticcheck // empty critical section IS the barrier

	// Backfill scan. The id snapshot is taken after the barrier, so every
	// document either appears in it or was inserted by a writer that
	// dual-writes.
	ids, err := e.allIDs(ctx, schema)
	if err != nil {
		return finish(fmt.Errorf("core: migration scan: %w", err))
	}
	e.stats.SeedDocs(schema, int64(len(ids)))
	for start := 0; start < len(ids); start += migScanBatch {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		select {
		case <-e.stopCh:
			return finish(errors.New("core: engine closing, migration suspended"))
		default:
		}
		end := start + migScanBatch
		if end > len(ids) {
			end = len(ids)
		}
		if err := e.migrateBatch(ctx, schema, mig, ids[start:end]); err != nil {
			return finish(err)
		}
		if e.migThrottle > 0 {
			time.Sleep(e.migThrottle)
		}
	}

	// Cutover: the new plan becomes authoritative in one persisted write,
	// then queries swap to the new index.
	if err := e.storePlan(schema, field, target); err != nil {
		return finish(err)
	}
	finalRT := migRT.clone()
	finalRT.plans[field] = target
	for name, inst := range instances {
		if _, ok := finalRT.instances[name]; !ok {
			finalRT.instances[name] = inst
		}
	}
	finalRT.mig = nil
	e.mu.Lock()
	e.schemas[schema] = finalRT
	e.mu.Unlock()

	// Drain writers still inside the window before dropping its journal
	// and markers — a late HSet against a deleted marker hash would leave
	// a stray claim to poison the *next* migration's resume.
	finalRT.writers.Lock()
	finalRT.writers.Unlock() //nolint:staticcheck // empty critical section IS the barrier
	e.local.Del(migrKey(schema, field))
	e.local.Del(markerKey(schema, field))
	e.stats.MigrationDone()
	return nil
}

// migrateBatch backfills one batch of document ids under their document
// locks: fetch the live blobs, feed unclaimed documents into the target
// indexes, mark them done. Holding the locks means no write of a batch id
// interleaves the fetch-then-write, so the value written is the value
// stored. The stripes are taken in ascending order, the one order any
// holder of several takes them in.
func (e *Engine) migrateBatch(ctx context.Context, schema string, m *migration, batch []string) error {
	var stripes [conc.StripeCount]bool
	for _, id := range batch {
		stripes[conc.Stripe(schema, id)] = true
	}
	for i, held := range stripes {
		if held {
			e.docLocks[i].Lock()
			defer e.docLocks[i].Unlock()
		}
	}
	var todo []string
	for _, id := range batch {
		if _, loaded := m.claims.LoadOrStore(id, struct{}{}); !loaded {
			todo = append(todo, id)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	docs, err := e.Fetch(ctx, schema, todo)
	if err != nil {
		return fmt.Errorf("core: migration fetch: %w", err)
	}
	for _, doc := range docs {
		if _, ok := doc.Fields[m.field]; !ok {
			continue
		}
		w := &write{e: e, schema: schema}
		err := w.target(m, doc, model.OpInsert)
		if err == nil {
			err = w.flush(ctx)
		}
		if err != nil {
			return fmt.Errorf("core: migration backfill %s: %w", doc.ID, err)
		}
		if err := e.local.HSet(m.marker, []byte(doc.ID), []byte{1}); err != nil {
			return fmt.Errorf("core: migration marker: %w", err)
		}
	}
	return nil
}

// resumeMigrations restarts online re-indexes journaled before a crash or
// shutdown. Each resumes in the background; queries and writes proceed
// normally meanwhile (the field still runs its persisted old plan).
func (e *Engine) resumeMigrations(ctx context.Context) error {
	keysList, err := e.local.Keys([]byte("migr/"))
	if err != nil {
		return err
	}
	for _, k := range keysList {
		parts := strings.SplitN(strings.TrimPrefix(string(k), "migr/"), "/", 2)
		if len(parts) != 2 {
			continue
		}
		schema, field := parts[0], parts[1]
		raw, ok, err := e.local.Get(k)
		if err != nil || !ok {
			continue
		}
		var rec migrRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("core: decoding migration record %s: %w", k, err)
		}
		target := rec.Plan.plan()
		e.bg.Add(1)
		go func() {
			defer e.bg.Done()
			bctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				select {
				case <-e.stopCh:
					cancel()
				case <-bctx.Done():
				}
			}()
			_ = e.migrateField(bctx, schema, field, target)
		}()
	}
	return nil
}

// planScore estimates a plan's cost under a field's observed workload
// mix: every plan tactic pays the insert/delete maintenance stream, and
// each search op pays its routed tactic's query cost.
func (e *Engine) planScore(schema string, p spi.Plan, rates map[model.Op]float64, cost spi.CostFn) float64 {
	score := 0.0
	for _, name := range p.Tactics {
		if c, ok := cost(name, model.OpInsert); ok {
			score += rates[model.OpInsert] * c
		}
		if c, ok := cost(name, model.OpDelete); ok {
			score += rates[model.OpDelete] * c
		}
	}
	for op, name := range p.ByOp {
		switch op {
		case model.OpEquality, model.OpBoolean, model.OpRange:
			if c, ok := cost(name, op); ok {
				score += rates[op] * c
			}
		}
	}
	return score
}

// Replan re-evaluates every unpinned sensitive field against the live
// cost model and migrates the ones whose current plan is beaten by more
// than the hysteresis margin. It returns the migrated "schema.field"
// names. Pinned fields (Annotation.Tactics) are never touched: pins are
// hard operator overrides.
func (e *Engine) Replan(ctx context.Context) ([]string, error) {
	var migrated []string
	for _, schema := range e.Schemas() {
		rt, err := e.runtime(schema)
		if err != nil {
			continue
		}
		if !e.stats.DocsSeeded(schema) {
			if n, err := e.Count(ctx, schema); err == nil {
				e.stats.SeedDocs(schema, int64(n))
			}
		}
		for _, f := range rt.schema.SensitiveFields() {
			if len(f.Annotation.Tactics) > 0 {
				continue
			}
			rates := e.stats.FieldRates(schema, f.Name)
			total := 0.0
			for _, n := range rates {
				total += n
			}
			if total < minReplanOps {
				continue
			}
			cost := e.costFn(schema)
			desired, err := e.registry.SelectWith(f, spi.SelectOptions{
				Cheapest: true,
				Cost:     cost,
				Weights:  rates,
			})
			if err != nil {
				continue
			}
			current := rt.plans[f.Name]
			if planEqual(desired, current) {
				continue
			}
			curScore := e.planScore(schema, current, rates, cost)
			desScore := e.planScore(schema, desired, rates, cost)
			if curScore <= 0 || desScore >= curScore*(1-replanHysteresis) {
				continue // challenger not decisively cheaper; don't flap
			}
			if err := e.migrateField(ctx, schema, f.Name, desired); err != nil {
				return migrated, err
			}
			migrated = append(migrated, schema+"."+f.Name)
		}
	}
	return migrated, nil
}
