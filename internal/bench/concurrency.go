// Concurrency experiment: quantifies the gateway's fan-out and the
// transport's pipelining against their sequential baselines.
//
// Two measurements, each over simulated gateway↔cloud latency (the
// regime the paper's deployment actually ran in — a private datacenter
// talking to a public cloud). Inserts are not among them: an insert ships
// one batch per shard in either engine mode, so on this single node there
// is no fan-out left to compare.
//
//	search   — multi-leaf disjunction across mixed-tactic fields, parallel
//	           leaf evaluation vs core.Config{Sequential: true}
//	pipeline — N concurrent callers multiplexed over ONE TCP socket vs a
//	           single caller (the transport-level win, isolated from the
//	           engine)

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/coalesce"
	"datablinder/internal/core"
	"datablinder/internal/fhir"
	"datablinder/internal/keys"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// ConcurrencyConfig parameterizes the concurrency experiment.
type ConcurrencyConfig struct {
	// SeedDocs documents are loaded before the measured phases.
	SeedDocs int
	// Searches multi-leaf disjunctions are measured per engine mode.
	Searches int
	// Clients is the concurrent-caller count of the pipeline scenario.
	Clients int
	// ClientOps is the total RPC count of the pipeline scenario (split
	// across callers).
	ClientOps int
	// NetDelay is the simulated gateway→cloud RTT applied to every RPC of
	// the engine scenarios and served by the pipeline scenario's handler.
	NetDelay time.Duration
	// Seed fixes the synthetic population.
	Seed int64
}

// DefaultConcurrencyConfig returns a laptop-scale configuration.
func DefaultConcurrencyConfig() ConcurrencyConfig {
	return ConcurrencyConfig{
		SeedDocs: 60, Searches: 30,
		Clients: 16, ClientOps: 480,
		NetDelay: 10 * time.Millisecond, Seed: 1,
	}
}

// ModeStats is one measured mode of one scenario.
type ModeStats struct {
	Ops        int
	Elapsed    time.Duration
	Throughput float64 // ops per second
}

func measure(ops int, elapsed time.Duration) ModeStats {
	s := ModeStats{Ops: ops, Elapsed: elapsed}
	if elapsed > 0 {
		s.Throughput = float64(ops) / elapsed.Seconds()
	}
	return s
}

// ConcurrencyResult carries all four measurements.
type ConcurrencyResult struct {
	SearchSeq, SearchPar     ModeStats
	PipelineOne, PipelineFan ModeStats
	Clients                  int
	NetDelay                 time.Duration
}

// SearchSpeedup is parallel over sequential search throughput.
func (r ConcurrencyResult) SearchSpeedup() float64 { return speedup(r.SearchPar, r.SearchSeq) }

// PipelineSpeedup is N-caller over single-caller throughput on one socket.
func (r ConcurrencyResult) PipelineSpeedup() float64 { return speedup(r.PipelineFan, r.PipelineOne) }

func speedup(num, den ModeStats) float64 {
	if den.Throughput == 0 {
		return 0
	}
	return num.Throughput / den.Throughput
}

// concurrencyQuery builds the measured multi-leaf disjunction: six leaves
// over four fields served by two different tactics (DET and Mitra). The
// benchmark schema has no boolean-search tactic, so the engine evaluates
// this recursively — one index round trip per leaf, the shape the parallel
// evaluator collapses into a single round-trip time.
func concurrencyQuery(i int, patients []string) core.Predicate {
	return core.Or{Preds: []core.Predicate{
		core.Eq{Field: "status", Value: fhir.Statuses[i%len(fhir.Statuses)]},
		core.Eq{Field: "status", Value: fhir.Statuses[(i+1)%len(fhir.Statuses)]},
		core.Eq{Field: "code", Value: fhir.Codes[i%len(fhir.Codes)]},
		core.Eq{Field: "code", Value: fhir.Codes[(i+2)%len(fhir.Codes)]},
		core.Eq{Field: "subject", Value: patients[i%len(patients)]},
		core.Eq{Field: "subject", Value: patients[(i+1)%len(patients)]},
	}}
}

// concurrencyEngine builds a fresh cloud node plus engine in the requested
// mode, with NetDelay injected on every RPC.
func concurrencyEngine(ctx context.Context, cfg ConcurrencyConfig, sequential bool) (*core.Engine, func(), error) {
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		return nil, nil, err
	}
	kp, err := keys.NewRandomStore()
	if err != nil {
		node.Close()
		return nil, nil, err
	}
	local := kvstore.New()
	cleanup := func() {
		node.Close()
		local.Close()
	}
	var conn transport.Conn = transport.NewLoopback(node.Mux)
	if cfg.NetDelay > 0 {
		conn = delayConn{Conn: conn, delay: cfg.NetDelay}
	}
	registry, err := tactics.Registry()
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	// Coalescing off: the experiment compares sequential vs pipelined
	// engine dispatch under a fixed simulated network delay; merging
	// frames across callers would change what "one RPC" costs mid-series.
	engine, err := core.NewEngine(core.Config{
		Keys: kp, Cloud: conn, Local: local, Registry: registry, Sequential: sequential,
		Coalesce: coalesce.Options{Disabled: true},
	})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := engine.RegisterSchema(ctx, fhir.BenchmarkSchema()); err != nil {
		cleanup()
		return nil, nil, err
	}
	return engine, cleanup, nil
}

// runEngineMode seeds one engine and measures its search phase.
func runEngineMode(ctx context.Context, cfg ConcurrencyConfig, sequential bool) (ModeStats, error) {
	engine, cleanup, err := concurrencyEngine(ctx, cfg, sequential)
	if err != nil {
		return ModeStats{}, err
	}
	defer cleanup()

	gen := fhir.NewGenerator(cfg.Seed, 0, 0)
	schema := fhir.BenchmarkSchema().Name
	for i := 0; i < cfg.SeedDocs; i++ {
		if _, err := engine.Insert(ctx, schema, gen.Observation()); err != nil {
			return ModeStats{}, fmt.Errorf("bench: seeding: %w", err)
		}
	}
	patients := gen.Patients()

	t0 := time.Now()
	for i := 0; i < cfg.Searches; i++ {
		if _, err := engine.Search(ctx, schema, concurrencyQuery(i, patients)); err != nil {
			return ModeStats{}, fmt.Errorf("bench: search %d: %w", i, err)
		}
	}
	return measure(cfg.Searches, time.Since(t0)), nil
}

// runPipeline serves a handler that sleeps NetDelay per request (the
// simulated cloud) over real TCP and measures a PoolSize=1 client with one
// caller, then with cfg.Clients callers. The single socket is the point:
// any throughput gain beyond 1× is pure RPC multiplexing.
func runPipeline(ctx context.Context, cfg ConcurrencyConfig) (one, fan ModeStats, err error) {
	mux := transport.NewMux()
	mux.Handle("cloud", "op", func(hctx context.Context, _ json.RawMessage) (any, error) {
		select {
		case <-time.After(cfg.NetDelay):
			return nil, nil
		case <-hctx.Done():
			return nil, hctx.Err()
		}
	})
	srv := transport.NewServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return ModeStats{}, ModeStats{}, err
	}
	defer srv.Close()
	client, err := transport.Dial(addr, transport.DialOptions{PoolSize: 1})
	if err != nil {
		return ModeStats{}, ModeStats{}, err
	}
	defer client.Close()

	run := func(callers, ops int) (ModeStats, error) {
		var wg sync.WaitGroup
		errs := make(chan error, callers)
		t0 := time.Now()
		for c := 0; c < callers; c++ {
			n := ops / callers
			if c < ops%callers {
				n++
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := client.Call(ctx, "cloud", "op", nil, nil); err != nil {
						errs <- err
						return
					}
				}
			}(n)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			return ModeStats{}, err
		}
		return measure(ops, time.Since(t0)), nil
	}

	// The single-caller leg uses a proportional slice of the op budget so
	// both legs take comparable wall time.
	oneOps := cfg.ClientOps / cfg.Clients * 2
	if oneOps < 1 {
		oneOps = 1
	}
	if one, err = run(1, oneOps); err != nil {
		return ModeStats{}, ModeStats{}, err
	}
	fan, err = run(cfg.Clients, cfg.ClientOps)
	return one, fan, err
}

// RunConcurrency executes the full experiment.
func RunConcurrency(ctx context.Context, cfg ConcurrencyConfig) (ConcurrencyResult, error) {
	if cfg.SeedDocs <= 0 || cfg.Searches <= 0 || cfg.Clients <= 1 || cfg.ClientOps < cfg.Clients {
		return ConcurrencyResult{}, fmt.Errorf("bench: concurrency config must be positive (Clients > 1, ClientOps >= Clients)")
	}
	r := ConcurrencyResult{Clients: cfg.Clients, NetDelay: cfg.NetDelay}
	var err error
	if r.SearchSeq, err = runEngineMode(ctx, cfg, true); err != nil {
		return ConcurrencyResult{}, fmt.Errorf("bench: sequential mode: %w", err)
	}
	if r.SearchPar, err = runEngineMode(ctx, cfg, false); err != nil {
		return ConcurrencyResult{}, fmt.Errorf("bench: parallel mode: %w", err)
	}
	if r.PipelineOne, r.PipelineFan, err = runPipeline(ctx, cfg); err != nil {
		return ConcurrencyResult{}, fmt.Errorf("bench: pipeline: %w", err)
	}
	return r, nil
}

// FormatConcurrency renders the experiment as a table.
func FormatConcurrency(r ConcurrencyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrency experiment (simulated RTT %v)\n\n", r.NetDelay)
	fmt.Fprintf(&b, "%-28s %10s %12s %12s\n", "scenario", "ops", "throughput", "speedup")
	row := func(name string, s ModeStats, sp float64) {
		su := "baseline"
		if sp > 0 {
			su = fmt.Sprintf("%.2fx", sp)
		}
		fmt.Fprintf(&b, "%-28s %10d %9.1f/s %12s\n", name, s.Ops, s.Throughput, su)
	}
	row("search 6-leaf sequential", r.SearchSeq, 0)
	row("search 6-leaf parallel", r.SearchPar, r.SearchSpeedup())
	row("1 caller, 1 socket", r.PipelineOne, 0)
	row(fmt.Sprintf("%d callers, 1 socket", r.Clients), r.PipelineFan, r.PipelineSpeedup())
	return b.String()
}
