package bench

import (
	"context"
	"testing"
	"time"

	"datablinder/internal/transport"
)

// TestRunShardingSmoke runs a miniature scaling curve (no service-time
// model, so it is CPU-fast) and checks the result's shape: every tier
// measured, every op accounted for, balance vectors sized to the tier,
// and all inserted documents present across the shards of each tier.
func TestRunShardingSmoke(t *testing.T) {
	cfg := ShardingConfig{
		ShardCounts: []int{1, 3},
		Inserts:     40,
		EqQueries:   24, BoolQueries: 4, RangeQueries: 4,
		Users: 8, NodeWidth: 4, ServiceTime: 0,
		Seed: 7,
	}
	r, err := RunSharding(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(r.Runs))
	}
	for _, run := range r.Runs {
		if run.InsertOps != cfg.Inserts {
			t.Errorf("%d shards: %d insert ops, want %d", run.Shards, run.InsertOps, cfg.Inserts)
		}
		if want := cfg.EqQueries + cfg.BoolQueries + cfg.RangeQueries; run.QueryOps != want {
			t.Errorf("%d shards: %d query ops, want %d", run.Shards, run.QueryOps, want)
		}
		if len(run.DocsPerShard) != run.Shards || len(run.RPCsPerShard) != run.Shards {
			t.Fatalf("%d shards: balance vectors sized %d/%d", run.Shards, len(run.DocsPerShard), len(run.RPCsPerShard))
		}
		docs := 0
		for _, d := range run.DocsPerShard {
			docs += d
		}
		if docs != cfg.Inserts {
			t.Errorf("%d shards: %d docs stored across shards, want %d", run.Shards, docs, cfg.Inserts)
		}
		if run.AggregateThroughput <= 0 {
			t.Errorf("%d shards: non-positive aggregate throughput", run.Shards)
		}
	}
	// The multi-shard tier must actually spread documents.
	multi := r.Runs[1]
	for s, d := range multi.DocsPerShard {
		if d == 0 {
			t.Errorf("shard %d stored no documents: %v", s, multi.DocsPerShard)
		}
	}
}

// TestNodeConnBatchCost verifies the capacity model charges batch RPCs per
// sub-operation, not per frame: a 3-op batch must cost three quanta.
func TestNodeConnBatchCost(t *testing.T) {
	stub := connFunc(func(context.Context, string, string, any, any) error { return nil })
	quantum := 20 * time.Millisecond
	nc := newNodeConn(stub, 1, quantum)

	t0 := time.Now()
	if err := nc.Call(context.Background(), "svc", "m", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Upper bound is generous: on a loaded single-core -race run scheduling
	// delay stacks on top of the one-quantum sleep.
	if single := time.Since(t0); single < quantum || single >= 3*quantum {
		t.Errorf("plain call took %v, want about one %v quantum", single, quantum)
	}

	t0 = time.Now()
	if err := nc.Call(context.Background(), transport.BatchService, transport.BatchMethod, make([]transport.BatchCall, 3), nil); err != nil {
		t.Fatal(err)
	}
	if batched := time.Since(t0); batched < 3*quantum {
		t.Errorf("3-op batch took %v, want at least %v (3 quanta)", batched, 3*quantum)
	}
}

type connFunc func(ctx context.Context, service, method string, args, reply any) error

func (f connFunc) Call(ctx context.Context, service, method string, args, reply any) error {
	return f(ctx, service, method, args, reply)
}
func (connFunc) Close() error { return nil }
