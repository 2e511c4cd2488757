// Package bench reproduces the paper's §5.2 performance evaluation: a
// Locust-style load generator driving the three scenarios (S_A plain,
// S_B hard-coded tactics, S_C DataBlinder) with a balanced
// read/write/aggregate workload over synthetic FHIR observations, and the
// statistics needed to regenerate Figure 5 and the latency table.
package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datablinder/internal/fhir"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
)

// Config parameterizes one scenario run.
type Config struct {
	// Scenario is "A", "B" or "C".
	Scenario string
	// Users is the number of concurrent virtual users (paper: 1000).
	Users int
	// Requests is the total request count (paper: ~151k). One third are
	// inserts, one third equality searches, one third aggregates.
	Requests int
	// Seed fixes the synthetic population and workload.
	Seed int64
	// NetDelay simulates the gateway->cloud network round-trip time by
	// sleeping on every RPC. The paper's deployment spanned a private
	// OpenStack datacenter and a public cloud provider; the loopback
	// transport alone would make the plaintext baseline unrealistically
	// cheap relative to the tactic scenarios.
	NetDelay time.Duration

	// Conn is the shared cloud connection.
	Conn transport.Conn
	// Keys provides key material (S_B and S_C).
	Keys keys.Provider
	// Local is the gateway state store (S_B and S_C).
	Local *kvstore.Store
}

// Run executes one scenario and reports its statistics.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Users <= 0 || cfg.Requests <= 0 {
		return Result{}, fmt.Errorf("bench: Users and Requests must be positive")
	}
	var indexOps int64
	var conn transport.Conn = cfg.Conn
	if cfg.NetDelay > 0 {
		conn = delayConn{Conn: conn, delay: cfg.NetDelay}
	}
	conn = countingConn{Conn: conn, indexOps: &indexOps}
	a, err := NewApp(ctx, cfg.Scenario, conn, cfg.Keys, cfg.Local)
	if err != nil {
		return Result{}, err
	}

	// Pre-generate the document stream (one third of all requests).
	nDocs := cfg.Requests / 3
	if nDocs == 0 {
		nDocs = 1
	}
	gen := fhir.NewGenerator(cfg.Seed, 0, 0)
	docs := make([]*model.Document, nDocs)
	for i := range docs {
		docs[i] = gen.Observation()
	}
	patients := gen.Patients()

	rec := NewRecorder()
	var (
		nextReq int64 = -1
		nextDoc int64 = -1
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	fail := func(err error) {
		errOnce.Do(func() { runErr = err })
	}
	start := time.Now()
	for u := 0; u < cfg.Users; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&nextReq, 1)
				if i >= int64(cfg.Requests) || ctx.Err() != nil {
					return
				}
				var err error
				t0 := time.Now()
				switch i % 3 {
				case 0: // write
					d := atomic.AddInt64(&nextDoc, 1)
					if d >= int64(len(docs)) {
						// Document stream exhausted (rounding); count as a
						// search instead.
						err = doSearch(ctx, a, patients, i)
						rec.Record(OpSearch, time.Since(t0))
					} else {
						err = a.Insert(ctx, docs[d])
						rec.Record(OpInsert, time.Since(t0))
					}
				case 1: // read (equality search protocols)
					err = doSearch(ctx, a, patients, i)
					rec.Record(OpSearch, time.Since(t0))
				default: // aggregate (search + homomorphic average)
					_, err = a.AverageWhere(ctx, "code", fhir.Codes[int(i)%len(fhir.Codes)])
					rec.Record(OpAggregate, time.Since(t0))
				}
				if err != nil {
					fail(fmt.Errorf("bench: scenario %s request %d: %w", cfg.Scenario, i, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return Result{}, runErr
	}
	return rec.snapshot("S_"+cfg.Scenario, elapsed, indexOps, cfg.Users), nil
}

// doSearch issues one equality search, rotating over the three searchable
// dimensions of the benchmark schema.
func doSearch(ctx context.Context, a App, patients []string, i int64) error {
	var err error
	switch i % 9 {
	case 1, 4:
		_, err = a.SearchEq(ctx, "status", fhir.Statuses[int(i)%len(fhir.Statuses)])
	case 7:
		_, err = a.SearchEq(ctx, "subject", patients[int(i)%len(patients)])
	default:
		_, err = a.SearchEq(ctx, "code", fhir.Codes[int(i)%len(fhir.Codes)])
	}
	return err
}

// RunAll executes S_A, S_B and S_C with identical workloads against fresh
// state, returning the three results in order. newConn must produce a
// connection to a FRESH cloud node per scenario so index state does not
// leak across scenarios.
func RunAll(ctx context.Context, base Config, newEnv func() (transport.Conn, keys.Provider, *kvstore.Store, func(), error)) (a, b, c Result, err error) {
	run := func(scenario string) (Result, error) {
		conn, kp, local, cleanup, err := newEnv()
		if err != nil {
			return Result{}, err
		}
		defer cleanup()
		cfg := base
		cfg.Scenario = scenario
		cfg.Conn = conn
		cfg.Keys = kp
		cfg.Local = local
		return Run(ctx, cfg)
	}
	if a, err = run("A"); err != nil {
		return
	}
	if b, err = run("B"); err != nil {
		return
	}
	c, err = run("C")
	return
}
