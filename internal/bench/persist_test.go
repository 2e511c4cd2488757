package bench

import (
	"context"
	"testing"
)

// TestRunPersistSmoke runs a miniature persistence experiment and checks
// the result's shape: every (policy, callers) cell present with positive
// throughput, single-caller cells carrying allocation counts, both
// recovery arms measured over the configured history, and the headline
// ratio populated. Magnitude thresholds live in the full
// blinderbench run, not here — a 2-core CI runner at toy scale proves
// shape, not speedups.
func TestRunPersistSmoke(t *testing.T) {
	cfg := PersistConfig{
		Inserts:         64,
		CallerCounts:    []int{1, 4},
		Policies:        []string{"always", "never"},
		RecoveryRecords: 4000,
		RecoveryKeys:    500,
		ValueBytes:      48,
		Seed:            7,
	}
	r, err := RunPersist(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(cfg.Policies) * len(cfg.CallerCounts)
	if len(r.Runs) != wantCells {
		t.Fatalf("got %d cells, want %d", len(r.Runs), wantCells)
	}
	for _, run := range r.Runs {
		if run.Ops != cfg.Inserts || run.Throughput <= 0 || run.NsPerOp <= 0 {
			t.Errorf("%s/%d: bad accounting %+v", run.Policy, run.Callers, run)
		}
		if run.Callers == 1 && run.AllocsPerOp <= 0 {
			t.Errorf("%s/1: missing allocs/op", run.Policy)
		}
	}
	if len(r.Recovery) != 2 {
		t.Fatalf("got %d recovery runs, want 2", len(r.Recovery))
	}
	engines := map[string]bool{}
	for _, run := range r.Recovery {
		engines[run.Engine] = true
		if run.Records != cfg.RecoveryRecords || run.LoadMs <= 0 {
			t.Errorf("recovery %s: bad accounting %+v", run.Engine, run)
		}
	}
	for _, e := range []string{"wal-replay", "wal-snapshot"} {
		if !engines[e] {
			t.Errorf("recovery arm %s missing", e)
		}
	}
	if r.SnapshotSpeedup <= 0 {
		t.Errorf("headline ratio not populated: %+v", r)
	}
}
