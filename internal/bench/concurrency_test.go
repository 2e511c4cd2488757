package bench

import (
	"context"
	"testing"
	"time"
)

func testConcurrencyConfig() ConcurrencyConfig {
	return ConcurrencyConfig{
		SeedDocs: 24, Searches: 10,
		Clients: 8, ClientOps: 96,
		NetDelay: 10 * time.Millisecond, Seed: 7,
	}
}

// TestConcurrencySpeedups is the acceptance check for the fan-out work:
// parallel search must sustain at least 2x the sequential baseline's
// throughput, and N callers on one socket must beat one caller
// by at least 2x. The 10ms simulated RTT makes round trips dominate, so
// the ratios are governed by overlap, not scheduler noise.
func TestConcurrencySpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	r, err := RunConcurrency(context.Background(), testConcurrencyConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatConcurrency(r))
	if s := r.SearchSpeedup(); s < 2 {
		t.Errorf("multi-leaf search speedup = %.2fx, want >= 2x", s)
	}
	if s := r.PipelineSpeedup(); s < 2 {
		t.Errorf("pipelined client speedup = %.2fx, want >= 2x", s)
	}
}

func TestConcurrencyValidation(t *testing.T) {
	if _, err := RunConcurrency(context.Background(), ConcurrencyConfig{}); err == nil {
		t.Fatal("RunConcurrency accepted a zero config")
	}
	cfg := testConcurrencyConfig()
	cfg.Clients = 1
	if _, err := RunConcurrency(context.Background(), cfg); err == nil {
		t.Fatal("RunConcurrency accepted Clients=1")
	}
}
