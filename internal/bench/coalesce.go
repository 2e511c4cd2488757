// Coalesce experiment: A/B-measures the gateway's per-shard group-commit
// stage (internal/coalesce) under the traffic shape it exists for — many
// concurrent callers hammering a small sharded tier across a network where
// the per-frame cost dwarfs the per-operation cost.
//
// Node cost model. Each shard sits behind an rpcConn that admits at most
// NodeWidth concurrent frames and charges RPCOverhead of (sleeping,
// non-CPU) latency per frame plus PerOp per operation the frame carries —
// the shape of a real RPC over a datacenter link, where syscalls, framing,
// and scheduling cost far more than one extra key-value insert riding in
// an already-open frame. Uncoalesced, every caller ships its own small
// frame per shard and pays RPCOverhead each time; coalesced, one mega-
// batch per shard amortizes RPCOverhead over every active caller's
// sub-calls and pays the (much smaller) PerOp cost for the extra work.
// The frame and sub-operation counters on each rpcConn report exactly how
// much framing the coalescer removed.
//
// Two measured phases per arm, both driven by Callers goroutines:
//
//	insert — full engine.Insert over the sharding schema (doc.put plus
//	         DET/Mitra/BIEX/OPE index writes), the write path the group
//	         commit targets
//	get    — engine.Get over a small hot id set, exercising read-side
//	         coalescing: singleflight joins of identical in-flight gets
//	         and doc.get → doc.getmany merging per shard
//
// The BIEX packing numbers (cross cells vs wire entries for a 10-keyword
// document) are measured directly on the SSE client, independent of the
// RPC model.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datablinder/internal/cloud/ring"
	"datablinder/internal/coalesce"
	"datablinder/internal/core"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/fhir"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	ssebiex "datablinder/internal/sse/biex"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"

	cloudnode "datablinder/internal/cloud"
)

// CoalesceConfig parameterizes the coalesce experiment.
type CoalesceConfig struct {
	// Shards is the cloud tier size.
	Shards int
	// Callers is the concurrent gateway caller count of both phases.
	Callers int
	// Inserts documents are written in the insert phase (split across
	// callers).
	Inserts int
	// Gets point reads are issued in the get phase (split across callers).
	Gets int
	// HotIDs is how many distinct documents the get phase draws from;
	// Gets >> HotIDs makes identical in-flight reads common, the case
	// singleflight deduplication exists for.
	HotIDs int
	// NodeWidth is how many frames one node serves concurrently.
	NodeWidth int
	// RPCOverhead is the simulated fixed cost per frame.
	RPCOverhead time.Duration
	// PerOp is the simulated cost per sub-operation a frame carries.
	PerOp time.Duration
	// Seed fixes the synthetic population and the get phase's id draw.
	Seed int64
}

// DefaultCoalesceConfig returns a laptop-scale configuration sized so the
// uncoalesced arm is firmly frame-bound: 16 callers against a 4-shard tier
// over a gateway↔cloud link in the regime the paper deployed in (private
// datacenter to public cloud, where a round trip costs milliseconds and a
// sub-operation riding an open frame costs microseconds).
func DefaultCoalesceConfig() CoalesceConfig {
	return CoalesceConfig{
		Shards: 4, Callers: 16,
		Inserts: 480, Gets: 960, HotIDs: 64,
		NodeWidth: 4, RPCOverhead: 5 * time.Millisecond, PerOp: 25 * time.Microsecond,
		Seed: 1,
	}
}

// CoalesceRun is one arm's measurement.
type CoalesceRun struct {
	InsertOps        int     `json:"insert_ops"`
	InsertThroughput float64 `json:"insert_throughput_per_s"`
	GetOps           int     `json:"get_ops"`
	GetThroughput    float64 `json:"get_throughput_per_s"`
	// Frames is how many RPC frames the tier served across both phases;
	// SubOps is how many operations those frames carried. SubOps is
	// workload-determined and near-identical across arms — Frames is what
	// coalescing collapses.
	Frames int64 `json:"frames"`
	SubOps int64 `json:"sub_ops"`
}

// CoalesceResult carries both arms plus the derived ratios.
type CoalesceResult struct {
	Baseline  CoalesceRun `json:"baseline"`
	Coalesced CoalesceRun `json:"coalesced"`
	// InsertSpeedup / GetSpeedup are coalesced over baseline throughput.
	InsertSpeedup float64 `json:"insert_speedup"`
	GetSpeedup    float64 `json:"get_speedup"`
	// FrameReduction is baseline frames over coalesced frames.
	FrameReduction float64 `json:"frame_reduction"`
	// BiexCrossCells10 / BiexCrossWire10 are a 10-keyword document's cross
	// multimap cells and the top-level wire entries carrying them — the
	// O(k²) → O(1)-per-shard packing win, measured on the SSE client.
	BiexCrossCells10 int `json:"biex_cross_cells_10kw"`
	BiexCrossWire10  int `json:"biex_cross_wire_entries_10kw"`
	// Stats is the coalesced arm's aggregated coalescer counters.
	Stats  coalesce.Stats `json:"coalesce_stats"`
	Config CoalesceConfig `json:"config"`
	// Meta is stamped by WriteCoalesceJSON.
	Meta Meta `json:"meta"`
}

// rpcConn models one shard's RPC cost: at most width in-flight frames,
// each charged overhead plus ops×perOp of sleeping latency. Operations are
// counted through batch framing (a _batch.exec frame carrying k sub-calls
// counts the sum of its sub-calls' operations), so both arms are billed
// identically per unit of index work and differ only in framing.
type rpcConn struct {
	transport.Conn
	slots           chan struct{}
	overhead, perOp time.Duration

	frames atomic.Int64
	subOps atomic.Int64
}

func newRPCConn(conn transport.Conn, width int, overhead, perOp time.Duration) *rpcConn {
	if width <= 0 {
		width = 1
	}
	return &rpcConn{Conn: conn, slots: make(chan struct{}, width), overhead: overhead, perOp: perOp}
}

func (c *rpcConn) Call(ctx context.Context, service, method string, args, reply any) error {
	select {
	case c.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.slots }()
	ops := countFrameOps(service, method, args)
	c.frames.Add(1)
	c.subOps.Add(int64(ops))
	if cost := c.overhead + time.Duration(ops)*c.perOp; cost > 0 {
		t := time.NewTimer(cost)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	return c.Conn.Call(ctx, service, method, args, reply)
}

// countFrameOps counts the operations one frame carries. Batch frames sum
// their sub-calls; multi-item calls (getmany, putmany, BIEX cell batches)
// count per item, so packing and coalescing change framing, not billed
// work.
func countFrameOps(service, method string, args any) int {
	calls, ok := args.([]transport.BatchCall)
	if !ok {
		return countSubOps(service, method, args)
	}
	n := 0
	for _, c := range calls {
		n += countSubOps(c.Service, c.Method, c.Args)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// countSubOps reads the item count out of args' JSON form, which is the
// same whether the value arrives plain or inside the coalescer's
// transport.RawArgs.
func countSubOps(service, method string, args any) int {
	n := 1
	payload, err := json.Marshal(args)
	if err != nil {
		return n
	}
	switch service + "." + method {
	case "biex.insert":
		var a struct {
			Entries ssebiex.Entries `json:"entries"`
		}
		if json.Unmarshal(payload, &a) == nil {
			n = a.Entries.Cells()
		}
	case "doc.getmany":
		var a struct {
			IDs []string `json:"ids"`
		}
		if json.Unmarshal(payload, &a) == nil {
			n = len(a.IDs)
		}
	case "doc.putmany":
		var a struct {
			Records []json.RawMessage `json:"records"`
		}
		if json.Unmarshal(payload, &a) == nil {
			n = len(a.Records)
		}
	case "doc.deletemany":
		var a struct {
			IDs []string `json:"ids"`
		}
		if json.Unmarshal(payload, &a) == nil {
			n = len(a.IDs)
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// coalesceDeployment assembles a Shards-node tier behind rpcConns and an
// engine with coalescing either disabled (the baseline arm) or at the
// production defaults.
func coalesceDeployment(ctx context.Context, cfg CoalesceConfig, disabled bool) (*core.Engine, []*rpcConn, func(), error) {
	var nodes []*cloudnode.Node
	cleanup := func() {
		for _, node := range nodes {
			node.Close()
		}
	}
	wrapped := make([]*rpcConn, 0, cfg.Shards)
	conns := make([]transport.Conn, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		node, err := cloudnode.NewNode(cloudnode.Options{})
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		nodes = append(nodes, node)
		rc := newRPCConn(transport.NewLoopback(node.Mux), cfg.NodeWidth, cfg.RPCOverhead, cfg.PerOp)
		wrapped = append(wrapped, rc)
		conns = append(conns, rc)
	}
	var conn transport.Conn = conns[0]
	if cfg.Shards > 1 {
		conn = ring.NewClient(conns, 0)
	}
	kp, err := keys.NewRandomStore()
	if err != nil {
		cleanup()
		return nil, nil, nil, err
	}
	local := kvstore.New()
	fullCleanup := func() {
		cleanup()
		local.Close()
	}
	registry, err := tactics.Registry()
	if err != nil {
		fullCleanup()
		return nil, nil, nil, err
	}
	engine, err := core.NewEngine(core.Config{
		Keys: kp, Cloud: conn, Local: local, Registry: registry,
		Coalesce: coalesce.Options{Disabled: disabled},
	})
	if err != nil {
		fullCleanup()
		return nil, nil, nil, err
	}
	if err := engine.RegisterSchema(ctx, shardingSchema()); err != nil {
		fullCleanup()
		return nil, nil, nil, err
	}
	return engine, wrapped, fullCleanup, nil
}

// runCoalesceArm measures one arm: the insert phase then the get phase,
// both at cfg.Callers concurrency.
func runCoalesceArm(ctx context.Context, cfg CoalesceConfig, disabled bool) (CoalesceRun, coalesce.Stats, error) {
	engine, wrapped, cleanup, err := coalesceDeployment(ctx, cfg, disabled)
	if err != nil {
		return CoalesceRun{}, coalesce.Stats{}, err
	}
	defer cleanup()

	gen := fhir.NewGenerator(cfg.Seed, 0, 0)
	schema := shardingSchema().Name
	docs := make([]*model.Document, cfg.Inserts)
	for i := range docs {
		docs[i] = gen.Observation()
	}

	var run CoalesceRun
	ids := make([]string, cfg.Inserts)
	workers := func(total int, op func(i int) error) error {
		var wg sync.WaitGroup
		errs := make([]error, cfg.Callers)
		for w := 0; w < cfg.Callers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < total; i += cfg.Callers {
					if err := op(i); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}

	t0 := time.Now()
	err = workers(cfg.Inserts, func(i int) error {
		id, err := engine.Insert(ctx, schema, docs[i])
		ids[i] = id
		return err
	})
	if err != nil {
		return CoalesceRun{}, coalesce.Stats{}, fmt.Errorf("bench: coalesce insert: %w", err)
	}
	elapsed := time.Since(t0)
	run.InsertOps = cfg.Inserts
	if elapsed > 0 {
		run.InsertThroughput = float64(cfg.Inserts) / elapsed.Seconds()
	}

	hot := cfg.HotIDs
	if hot <= 0 || hot > len(ids) {
		hot = len(ids)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	gets := make([]string, cfg.Gets)
	for i := range gets {
		gets[i] = ids[rng.Intn(hot)]
	}
	t0 = time.Now()
	err = workers(cfg.Gets, func(i int) error {
		_, err := engine.Get(ctx, schema, gets[i])
		return err
	})
	if err != nil {
		return CoalesceRun{}, coalesce.Stats{}, fmt.Errorf("bench: coalesce get: %w", err)
	}
	elapsed = time.Since(t0)
	run.GetOps = cfg.Gets
	if elapsed > 0 {
		run.GetThroughput = float64(cfg.Gets) / elapsed.Seconds()
	}

	engine.Drain()
	stats := engine.CoalesceStats()
	for _, rc := range wrapped {
		run.Frames += rc.frames.Load()
		run.SubOps += rc.subOps.Load()
	}
	return run, stats, nil
}

// measureBiexPacking inserts one 10-keyword document through the BIEX SSE
// client and reports the cross multimap's cell count against the wire
// entries shipping those cells.
func measureBiexPacking() (cells, wire int, err error) {
	key, err := primitives.NewRandomKey()
	if err != nil {
		return 0, 0, err
	}
	client, err := ssebiex.NewClient(key, ssebiex.NewMemState(), ssebiex.Variant2Lev)
	if err != nil {
		return 0, 0, err
	}
	kws := make([]string, 10)
	for i := range kws {
		kws[i] = fmt.Sprintf("field-%d:value-%d", i, i)
	}
	groups, err := client.Insert("obs", "doc-pack", kws, ssebiex.SingleShard)
	if err != nil {
		return 0, 0, err
	}
	for _, g := range groups {
		wire += len(g.CrossPacked)
		for _, p := range g.CrossPacked {
			cells += p.Count
		}
	}
	return cells, wire, nil
}

// RunCoalesce runs both arms and the packing measurement.
func RunCoalesce(ctx context.Context, cfg CoalesceConfig) (CoalesceResult, error) {
	r := CoalesceResult{Config: cfg}
	var err error
	if r.Baseline, _, err = runCoalesceArm(ctx, cfg, true); err != nil {
		return r, err
	}
	if r.Coalesced, r.Stats, err = runCoalesceArm(ctx, cfg, false); err != nil {
		return r, err
	}
	if r.Baseline.InsertThroughput > 0 {
		r.InsertSpeedup = r.Coalesced.InsertThroughput / r.Baseline.InsertThroughput
	}
	if r.Baseline.GetThroughput > 0 {
		r.GetSpeedup = r.Coalesced.GetThroughput / r.Baseline.GetThroughput
	}
	if r.Coalesced.Frames > 0 {
		r.FrameReduction = float64(r.Baseline.Frames) / float64(r.Coalesced.Frames)
	}
	if r.BiexCrossCells10, r.BiexCrossWire10, err = measureBiexPacking(); err != nil {
		return r, err
	}
	return r, nil
}

// WriteCoalesceJSON stamps provenance and persists the result.
func WriteCoalesceJSON(r CoalesceResult, path string) error {
	r.Meta = CollectMeta()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatCoalesce renders both arms as a table.
func FormatCoalesce(r CoalesceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Coalesce experiment (%d shards, %d callers, %d inserts + %d gets over %d hot ids, frame %v + %v/op, node width %d)\n\n",
		r.Config.Shards, r.Config.Callers, r.Config.Inserts, r.Config.Gets, r.Config.HotIDs,
		r.Config.RPCOverhead, r.Config.PerOp, r.Config.NodeWidth)
	fmt.Fprintf(&b, "%10s %12s %12s %10s %10s\n", "arm", "insert/s", "get/s", "frames", "sub-ops")
	fmt.Fprintf(&b, "%10s %12.1f %12.1f %10d %10d\n", "baseline",
		r.Baseline.InsertThroughput, r.Baseline.GetThroughput, r.Baseline.Frames, r.Baseline.SubOps)
	fmt.Fprintf(&b, "%10s %12.1f %12.1f %10d %10d\n", "coalesced",
		r.Coalesced.InsertThroughput, r.Coalesced.GetThroughput, r.Coalesced.Frames, r.Coalesced.SubOps)
	fmt.Fprintf(&b, "\ninsert speedup %.2fx, get speedup %.2fx, %.1fx fewer frames\n",
		r.InsertSpeedup, r.GetSpeedup, r.FrameReduction)
	fmt.Fprintf(&b, "coalescer: %d enqueued, %d flushes, %d dedup joins, %d gets merged, max queue depth %d\n",
		r.Stats.Enqueued, r.Stats.Flushes, r.Stats.DedupHits, r.Stats.GetsMerged, r.Stats.MaxQueueDepth)
	fmt.Fprintf(&b, "biex 10-keyword doc: %d cross cells in %d wire entries\n",
		r.BiexCrossCells10, r.BiexCrossWire10)
	return b.String()
}
