// Persist experiment: measures the index store's durable write path — the
// segmented binary WAL — across fsync policies and caller counts, and what
// snapshots buy on restart.
//
// Three measured dimensions:
//
//	throughput — kvstore.Set ops/s per fsync policy at 1 caller (clean
//	             per-op cost) and Callers concurrent callers (the regime
//	             group commit amortizes: N callers share one fsync).
//	allocs     — heap allocations per durable Set (runtime Mallocs delta,
//	             single caller).
//	recovery   — cold-start time over the same RecoveryRecords-record
//	             history two ways: replaying the full WAL (parallel across
//	             lock stripes), and loading a snapshot plus empty tail.
//
// The store runs on real files in a temp directory; fsync cost is the
// machine's, so absolute numbers vary.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"datablinder/internal/store/kvstore"
	"datablinder/internal/store/wal"
)

// PersistConfig parameterizes the persistence experiment.
type PersistConfig struct {
	// Inserts is the number of Set ops per throughput cell.
	Inserts int
	// CallerCounts lists the concurrency levels to measure, in order.
	CallerCounts []int
	// Policies lists the fsync policies to measure ("always", "interval",
	// "never").
	Policies []string
	// RecoveryRecords is the history length for the recovery comparison.
	RecoveryRecords int
	// RecoveryKeys is the number of distinct keys the recovery history
	// cycles over. Records/Keys is the update factor: full-WAL replay
	// scales with the record count, snapshot load with the live key count —
	// the gap is exactly what snapshots buy.
	RecoveryKeys int
	// ValueBytes sizes each Set value.
	ValueBytes int
	// Seed fixes the synthetic key/value population.
	Seed int64
}

// DefaultPersistConfig returns a laptop-scale configuration: enough ops
// for stable throughput under fsync=always, a recovery history long
// enough (100k records) that replay dominates open cost.
func DefaultPersistConfig() PersistConfig {
	return PersistConfig{
		Inserts:         2000,
		CallerCounts:    []int{1, 16},
		Policies:        []string{"always", "interval", "never"},
		RecoveryRecords: 100_000,
		RecoveryKeys:    10_000,
		ValueBytes:      64,
		Seed:            1,
	}
}

// PersistRun is one (policy, caller-count) throughput cell.
type PersistRun struct {
	Policy      string  `json:"policy"`
	Callers     int     `json:"callers"`
	Ops         int     `json:"ops"`
	Throughput  float64 `json:"throughput_per_s"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"` // filled on single-caller cells
}

// RecoveryRun is one cold-start path's cost over the same history.
type RecoveryRun struct {
	Engine  string  `json:"engine"` // "wal-replay" or "wal-snapshot"
	Records int     `json:"records"`
	LoadMs  float64 `json:"load_ms"`
}

// PersistResult carries every cell plus the snapshot headline ratio.
type PersistResult struct {
	Runs     []PersistRun  `json:"runs"`
	Recovery []RecoveryRun `json:"recovery"`
	// SnapshotSpeedup is full-WAL-replay time over snapshot-load time for
	// the RecoveryRecords history.
	SnapshotSpeedup float64       `json:"snapshot_recovery_speedup"`
	Config          PersistConfig `json:"config"`
	// Meta is stamped by WritePersistJSON.
	Meta Meta `json:"meta"`
}

// persistKeys materializes the key/value population outside the timed
// region. Keys mimic index-store shape (namespace-prefixed, distinct).
func persistKeys(n, valueBytes int, seed int64) (keys, vals [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	keys = make([][]byte, n)
	vals = make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("det/wirebench/status/%08d", i))
		v := make([]byte, valueBytes)
		rng.Read(v)
		vals[i] = v
	}
	return keys, vals
}

// persistPhase drives total ops across callers and returns the elapsed
// time plus the process Mallocs delta.
func persistPhase(callers, total int, op func(i int) error) (time.Duration, uint64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += callers {
				if e := op(i); e != nil {
					errs[w] = e
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	return elapsed, m1.Mallocs - m0.Mallocs, nil
}

// runPersistCell measures one (policy, callers) cell on a fresh store in
// a fresh directory.
func runPersistCell(cfg PersistConfig, dir, policy string, callers int) (PersistRun, error) {
	run := PersistRun{Policy: policy, Callers: callers, Ops: cfg.Inserts}
	keys, vals := persistKeys(cfg.Inserts, cfg.ValueBytes, cfg.Seed)
	fsync, err := wal.ParsePolicy(policy)
	if err != nil {
		return run, err
	}
	s, err := kvstore.Open(filepath.Join(dir, "index"), kvstore.Options{Fsync: fsync})
	if err != nil {
		return run, err
	}
	elapsed, allocs, err := persistPhase(callers, cfg.Inserts, func(i int) error { return s.Set(keys[i], vals[i]) })
	cerr := s.Close()
	if err != nil {
		return run, fmt.Errorf("bench: persist %s/%d: %w", policy, callers, err)
	}
	if cerr != nil {
		return run, fmt.Errorf("bench: persist %s/%d close: %w", policy, callers, cerr)
	}
	if elapsed > 0 {
		run.Throughput = float64(run.Ops) / elapsed.Seconds()
	}
	run.NsPerOp = float64(elapsed.Nanoseconds()) / float64(run.Ops)
	if callers == 1 {
		run.AllocsPerOp = float64(allocs) / float64(run.Ops)
	}
	return run, nil
}

// runRecovery builds one RecoveryRecords-record history and times the
// cold start both ways. fsync=never keeps history construction fast; the
// recovery path is identical regardless of how the log was synced.
func runRecovery(cfg PersistConfig, dir string) ([]RecoveryRun, error) {
	keys, vals := persistKeys(cfg.RecoveryKeys, cfg.ValueBytes, cfg.Seed+1)
	key := func(i int) []byte { return keys[i%cfg.RecoveryKeys] }
	val := func(i int) []byte { return vals[(i/cfg.RecoveryKeys)%cfg.RecoveryKeys] }
	var runs []RecoveryRun

	// Write the history once, time a full-log replay, then snapshot
	// (Compact) and time the snapshot-load start.
	walPath := filepath.Join(dir, "walstore")
	s, err := kvstore.Open(walPath, kvstore.Options{Fsync: wal.FsyncNever})
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.RecoveryRecords; i++ {
		if err := s.Set(key(i), val(i)); err != nil {
			return nil, err
		}
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	// First open replays the full log (timed as wal-replay) and compacts
	// before closing, so the second open (timed as wal-snapshot) starts
	// from the snapshot with an empty tail.
	for _, arm := range []struct {
		engine  string
		compact bool
	}{{"wal-replay", true}, {"wal-snapshot", false}} {
		t0 := time.Now()
		s, err := kvstore.Open(walPath, kvstore.Options{Fsync: wal.FsyncNever})
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		if n, err := s.Len(); err != nil || n != cfg.RecoveryKeys {
			s.Close()
			return nil, fmt.Errorf("bench: %s recovered %d keys (err %v), want %d", arm.engine, n, err, cfg.RecoveryKeys)
		}
		if arm.compact {
			if err := s.Compact(); err != nil {
				s.Close()
				return nil, err
			}
		}
		if err := s.Close(); err != nil {
			return nil, err
		}
		runs = append(runs, RecoveryRun{Engine: arm.engine, Records: cfg.RecoveryRecords, LoadMs: ms})
	}
	return runs, nil
}

// RunPersist measures every throughput cell and the recovery comparison.
func RunPersist(ctx context.Context, cfg PersistConfig) (PersistResult, error) {
	_ = ctx
	if cfg.Inserts <= 0 || cfg.RecoveryRecords <= 0 || len(cfg.CallerCounts) == 0 || len(cfg.Policies) == 0 {
		return PersistResult{}, fmt.Errorf("bench: persist config must be positive")
	}
	if cfg.RecoveryKeys <= 0 || cfg.RecoveryKeys > cfg.RecoveryRecords {
		return PersistResult{}, fmt.Errorf("bench: recovery keys must be in [1, records]")
	}
	root, err := os.MkdirTemp("", "blinderbench-persist-*")
	if err != nil {
		return PersistResult{}, err
	}
	defer os.RemoveAll(root)

	r := PersistResult{Config: cfg}
	for _, policy := range cfg.Policies {
		for _, callers := range cfg.CallerCounts {
			if callers < 1 {
				return PersistResult{}, fmt.Errorf("bench: caller count must be >= 1 (got %d)", callers)
			}
			dir := filepath.Join(root, fmt.Sprintf("cell-%d", len(r.Runs)+1))
			if err := os.MkdirAll(dir, 0o700); err != nil {
				return PersistResult{}, err
			}
			fmt.Fprintf(os.Stderr, "  fsync=%s, %d caller(s)...\n", policy, callers)
			run, err := runPersistCell(cfg, dir, policy, callers)
			if err != nil {
				return PersistResult{}, err
			}
			r.Runs = append(r.Runs, run)
		}
	}

	fmt.Fprintf(os.Stderr, "  recovery comparison (%d records)...\n", cfg.RecoveryRecords)
	recDir := filepath.Join(root, "recovery")
	if err := os.MkdirAll(recDir, 0o700); err != nil {
		return PersistResult{}, err
	}
	r.Recovery, err = runRecovery(cfg, recDir)
	if err != nil {
		return PersistResult{}, err
	}

	rec := make(map[string]RecoveryRun)
	for _, run := range r.Recovery {
		rec[run.Engine] = run
	}
	if full, snap := rec["wal-replay"], rec["wal-snapshot"]; snap.LoadMs > 0 {
		r.SnapshotSpeedup = full.LoadMs / snap.LoadMs
	}
	return r, nil
}

// WritePersistJSON stamps provenance and persists the result.
func WritePersistJSON(r PersistResult, path string) error {
	r.Meta = CollectMeta()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatPersist renders the policy grid plus the snapshot headline.
func FormatPersist(r PersistResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Persistence experiment (%d Set ops per cell, %dB values, recovery over %d records / %d live keys)\n\n",
		r.Config.Inserts, r.Config.ValueBytes, r.Config.RecoveryRecords, r.Config.RecoveryKeys)
	fmt.Fprintf(&b, "%10s %8s %12s %12s %12s\n", "fsync", "callers", "ops/s", "ns/op", "allocs/op")
	for _, run := range r.Runs {
		allocs := "-"
		if run.AllocsPerOp > 0 {
			allocs = fmt.Sprintf("%.1f", run.AllocsPerOp)
		}
		fmt.Fprintf(&b, "%10s %8d %12.1f %12.1f %12s\n",
			run.Policy, run.Callers, run.Throughput, run.NsPerOp, allocs)
	}
	fmt.Fprintf(&b, "\ncold-start recovery:\n")
	fmt.Fprintf(&b, "%14s %10s %10s\n", "engine", "records", "load ms")
	for _, run := range r.Recovery {
		fmt.Fprintf(&b, "%14s %10d %10.1f\n", run.Engine, run.Records, run.LoadMs)
	}
	fmt.Fprintf(&b, "\nsnapshot recovery %.1fx faster than full-log replay\n", r.SnapshotSpeedup)
	return b.String()
}
