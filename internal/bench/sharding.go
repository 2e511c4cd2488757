// Sharding experiment: measures how gateway throughput scales as the
// cloud tier grows from 1 to N shards behind the consistent-hash ring.
//
// Node capacity model. The interesting quantity is how much of a sharded
// tier's aggregate service capacity the ring router and scatter-gather
// machinery can keep busy — but in-process loopback nodes share the bench
// host's CPUs, so raw loopback deployments would measure the host, not
// the tier. Each node is therefore wrapped in a nodeConn that admits at
// most NodeWidth concurrent RPCs and charges ServiceTime of (sleeping,
// non-CPU) latency per call: a fixed per-node service rate, which is the
// regime a real tier of independent machines runs in. Doubling the shard
// count doubles the tier's RPC capacity; the measured curves show how
// much of that the gateway actually converts into throughput, and where
// it bends (range queries broadcast to every shard, so they scale with
// the slowest node rather than the tier; point ops and keyword-routed
// boolean conjunctions scale with the shard count).
//
// The workload is the standard mix: document inserts (every index
// written), DET/Mitra equality, BIEX boolean, and OPE range queries,
// weighted read-mostly with high-cardinality lookups dominating, the
// shape of the paper's §5.2 workload. Paillier is deliberately absent — its encrypt cost is
// pure gateway CPU, identical at every shard count, and would only
// compress the measured ratios; sharded aggregate correctness is the
// e2e test's job.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/coalesce"
	"datablinder/internal/conc"
	"datablinder/internal/core"
	"datablinder/internal/fhir"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	biextactic "datablinder/internal/tactics/biex"
	"datablinder/internal/transport"
)

// ShardingConfig parameterizes the sharding experiment.
type ShardingConfig struct {
	// ShardCounts lists the tier sizes to measure, in order.
	ShardCounts []int
	// Inserts documents are written per deployment (the insert phase).
	Inserts int
	// EqQueries / BoolQueries / RangeQueries size the query phase's mix.
	EqQueries    int
	BoolQueries  int
	RangeQueries int
	// Users is the number of concurrent gateway workers driving the load.
	Users int
	// NodeWidth is how many RPCs one node serves concurrently.
	NodeWidth int
	// ServiceTime is the simulated per-RPC service time at a node.
	ServiceTime time.Duration
	// VirtualNodes is the ring's per-shard virtual node count (0 = default).
	VirtualNodes int
	// Seed fixes the synthetic population and the query interleaving.
	Seed int64
}

// DefaultShardingConfig returns a laptop-scale configuration: enough load
// to saturate the modeled single node, small enough to finish in seconds.
func DefaultShardingConfig() ShardingConfig {
	return ShardingConfig{
		ShardCounts: []int{1, 2, 4, 8},
		Inserts:     800,
		EqQueries:   1600, BoolQueries: 160, RangeQueries: 80,
		Users: 256, NodeWidth: 8, ServiceTime: 8 * time.Millisecond,
		Seed: 1,
	}
}

// ShardingRun is one deployment's measurement.
type ShardingRun struct {
	Shards              int     `json:"shards"`
	InsertOps           int     `json:"insert_ops"`
	InsertThroughput    float64 `json:"insert_throughput_per_s"`
	QueryOps            int     `json:"query_ops"`
	QueryThroughput     float64 `json:"query_throughput_per_s"`
	AggregateThroughput float64 `json:"aggregate_throughput_per_s"`
	// DocsPerShard / IndexKeysPerShard verify the ring spread data evenly,
	// gathered through each node's admin stats RPC.
	DocsPerShard      []int `json:"docs_per_shard"`
	IndexKeysPerShard []int `json:"index_keys_per_shard"`
	// BiexKeysPerShard isolates the boolean index's spread (the emm + zmf
	// kvstore namespaces — only BIEX writes them). Before keyword
	// partitioning this column showed the ~12x pileup on the home shard.
	BiexKeysPerShard []int `json:"biex_keys_per_shard"`
	// RPCsPerShard counts the RPCs each node served across both phases —
	// the load-balance view (a shard can hold its fair share of keys but
	// still serve a disproportionate share of traffic, e.g. the BIEX home
	// shard).
	RPCsPerShard []int `json:"rpcs_per_shard"`
}

// ShardingResult carries the full scaling curve.
type ShardingResult struct {
	Runs []ShardingRun `json:"runs"`
	// Speedup4v1 / Speedup8v1 are aggregate throughput at 4 and 8 shards
	// over 1 shard (0 when either size was not measured).
	Speedup4v1 float64        `json:"speedup_4v1"`
	Speedup8v1 float64        `json:"speedup_8v1,omitempty"`
	Config     ShardingConfig `json:"config"`
	// Meta is stamped by WriteShardingJSON.
	Meta Meta `json:"meta"`
}

// nodeConn models a cloud node with a fixed service rate: at most width
// in-flight RPCs, each charged service of latency per operation — a batch
// RPC carrying k sub-operations costs k quanta, because a real node's
// index work scales with operations, not with how they were framed.
// (Charging per RPC would bill a single node one quantum for a 3-op batch
// but a sharded tier three, penalizing exactly the deployments that split
// batches per shard.) The sleep happens while holding a slot, so a
// saturated node queues callers exactly like a busy remote process would,
// without consuming bench-host CPU.
type nodeConn struct {
	transport.Conn
	slots   chan struct{}
	service time.Duration
	calls   atomic.Int64
}

func newNodeConn(conn transport.Conn, width int, service time.Duration) *nodeConn {
	if width < 1 {
		width = 1
	}
	return &nodeConn{Conn: conn, slots: make(chan struct{}, width), service: service}
}

func (c *nodeConn) Call(ctx context.Context, service, method string, args, reply any) error {
	c.calls.Add(1)
	select {
	case c.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.slots }()
	if c.service > 0 {
		cost := c.service
		if calls, ok := args.([]transport.BatchCall); ok && len(calls) > 1 {
			cost = time.Duration(len(calls)) * c.service
		}
		// BIEX insert batches get the same per-operation accounting: one
		// RPC carries a whole per-shard group of index cells, and a real
		// node's multimap work scales with the cell count, not the frame
		// count. Charging per frame would bill a single node one quantum
		// for a 15-cell document but a sharded tier one per shard — again
		// penalizing exactly the deployments that split batches.
		if service == biextactic.Service && method == "insert" {
			if a, ok := args.(biextactic.InsertArgs); ok {
				n := a.Entries.Cells()
				if n > 1 {
					cost = time.Duration(n) * c.service
				}
			}
		}
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

// shardingSchema covers every query class the scaling run measures:
// DET + BIEX equality/boolean on status, code, and issued, Mitra + BIEX
// on subject and performer, OPE range on effective. Field names match the
// fhir generator so the synthetic population is reusable. The boolean
// span deliberately includes the high-cardinality fields (issued near
// unique, subject ~200 patients, performer ~25 practitioners): clinical
// boolean queries combine patient or practitioner with status/code, and
// those labels are what give the keyword-partitioned BIEX index a
// population that actually exercises the ring's spread — status and code
// alone are 13 enum keywords, too few to balance eight shards.
func shardingSchema() *model.Schema {
	must := func(s string) model.Annotation {
		a, err := model.ParseAnnotation(s)
		if err != nil {
			panic(err)
		}
		return a
	}
	return &model.Schema{
		Name: "observation",
		Fields: []model.Field{
			{Name: "identifier", Type: model.TypeString},
			{Name: "status", Type: model.TypeString, Sensitive: true, Annotation: must("C5, op [I, EQ, BL], tactic [DET, BIEX-2Lev]")},
			{Name: "code", Type: model.TypeString, Sensitive: true, Annotation: must("C5, op [I, EQ, BL], tactic [DET, BIEX-2Lev]")},
			{Name: "subject", Type: model.TypeString, Sensitive: true, Annotation: must("C3, op [I, EQ, BL], tactic [Mitra, BIEX-2Lev]")},
			{Name: "effective", Type: model.TypeInt, Sensitive: true, Annotation: must("C5, op [I, RG], tactic [OPE]")},
			{Name: "issued", Type: model.TypeInt, Sensitive: true, Annotation: must("C4, op [I, EQ, BL], tactic [DET, BIEX-2Lev]")},
			{Name: "performer", Type: model.TypeString, Sensitive: true, Annotation: must("C3, op [I, EQ, BL], tactic [Mitra, BIEX-2Lev]")},
			{Name: "value", Type: model.TypeFloat},
		},
	}
}

// shardingDeployment assembles an n-shard in-process tier: n independent
// nodes, each behind a capacity-modeling nodeConn, fronted by the same
// ring client the production gateway uses (or directly for n == 1, the
// unsharded fast path). The raw loopback connections are returned too so
// the balance check can read admin stats without consuming capacity slots.
func shardingDeployment(ctx context.Context, cfg ShardingConfig, n int) (*core.Engine, []transport.Conn, []*nodeConn, func(), error) {
	var nodes []*cloud.Node
	cleanup := func() {
		for _, node := range nodes {
			node.Close()
		}
	}
	raw := make([]transport.Conn, 0, n)
	wrapped := make([]*nodeConn, 0, n)
	conns := make([]transport.Conn, 0, n)
	for i := 0; i < n; i++ {
		node, err := cloud.NewNode(cloud.Options{})
		if err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		nodes = append(nodes, node)
		lb := transport.NewLoopback(node.Mux)
		raw = append(raw, lb)
		nc := newNodeConn(lb, cfg.NodeWidth, cfg.ServiceTime)
		wrapped = append(wrapped, nc)
		conns = append(conns, nc)
	}
	var conn transport.Conn = conns[0]
	if n > 1 {
		conn = ring.NewClient(conns, cfg.VirtualNodes)
	}
	kp, err := keys.NewRandomStore()
	if err != nil {
		cleanup()
		return nil, nil, nil, nil, err
	}
	local := kvstore.New()
	fullCleanup := func() {
		cleanup()
		local.Close()
	}
	registry, err := tactics.Registry()
	if err != nil {
		fullCleanup()
		return nil, nil, nil, nil, err
	}
	// Coalescing stays off here: nodeConn's capacity model charges per
	// sub-operation, so merged frames would not change the modeled cost,
	// and keeping the write path identical to earlier runs keeps the
	// scaling numbers comparable across revisions.
	engine, err := core.NewEngine(core.Config{
		Keys: kp, Cloud: conn, Local: local, Registry: registry,
		Coalesce: coalesce.Options{Disabled: true},
	})
	if err != nil {
		fullCleanup()
		return nil, nil, nil, nil, err
	}
	if err := engine.RegisterSchema(ctx, shardingSchema()); err != nil {
		fullCleanup()
		return nil, nil, nil, nil, err
	}
	return engine, raw, wrapped, fullCleanup, nil
}

// shardingQueries builds the query phase's mix — equality over four
// fields, And/Or boolean pairs, and effective-time range windows — then
// shuffles it deterministically so every class is in flight together.
// Equality is weighted patient-centric (two thirds subject/issued, one
// third status/code), the shape of the paper's §5.2 read-mostly workload:
// high-cardinality lookups dominate, low-cardinality enum scans are the
// minority. That weighting is also what makes the mix honest about
// sharding — enum equality concentrates on the few shards owning those
// posting lists, and drowning the mix in it would just measure that
// hotspot instead of the tier.
func shardingQueries(cfg ShardingConfig, docs []*model.Document, patients []string) []core.Predicate {
	var qs []core.Predicate
	for i := 0; i < cfg.EqQueries; i++ {
		switch i % 6 {
		case 0, 1:
			qs = append(qs, core.Eq{Field: "subject", Value: patients[i%len(patients)]})
		case 2, 3:
			qs = append(qs, core.Eq{Field: "issued", Value: docs[i%len(docs)].Fields["issued"]})
		case 4:
			qs = append(qs, core.Eq{Field: "status", Value: fhir.Statuses[i%len(fhir.Statuses)]})
		default:
			qs = append(qs, core.Eq{Field: "code", Value: fhir.Codes[i%len(fhir.Codes)]})
		}
	}
	for i := 0; i < cfg.BoolQueries; i++ {
		status := core.Eq{Field: "status", Value: fhir.Statuses[i%len(fhir.Statuses)]}
		code := core.Eq{Field: "code", Value: fhir.Codes[i%len(fhir.Codes)]}
		// Half the boolean load is patient/practitioner-anchored — the
		// clinical shape ("patient X's final observations") — whose
		// high-cardinality anchors route conjunctions across the whole
		// ring; the other half stays on the enum pairs.
		switch i % 4 {
		case 0:
			qs = append(qs, core.And{Preds: []core.Predicate{status, code}})
		case 1:
			qs = append(qs, core.Or{Preds: []core.Predicate{status, code}})
		case 2:
			subject := core.Eq{Field: "subject", Value: patients[i%len(patients)]}
			qs = append(qs, core.And{Preds: []core.Predicate{subject, status}})
		default:
			performer := core.Eq{Field: "performer", Value: docs[i%len(docs)].Fields["performer"]}
			qs = append(qs, core.And{Preds: []core.Predicate{performer, code}})
		}
	}
	if cfg.RangeQueries > 0 {
		effs := make([]int64, 0, len(docs))
		for _, d := range docs {
			if v, ok := d.Fields["effective"].(int64); ok {
				effs = append(effs, v)
			}
		}
		sort.Slice(effs, func(i, j int) bool { return effs[i] < effs[j] })
		window := len(effs) / 8
		if window < 1 {
			window = 1
		}
		for i := 0; i < cfg.RangeQueries; i++ {
			lo := (i * 13) % (len(effs) - window)
			qs = append(qs, core.Between("effective", effs[lo], effs[lo+window]))
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// runShardingDeployment measures one tier size: a timed concurrent insert
// phase, a timed concurrent mixed-query phase, then a balance snapshot.
func runShardingDeployment(ctx context.Context, cfg ShardingConfig, n int) (ShardingRun, error) {
	engine, raw, wrapped, cleanup, err := shardingDeployment(ctx, cfg, n)
	if err != nil {
		return ShardingRun{}, err
	}
	defer cleanup()

	// The generator is not concurrency-safe: materialize the population
	// up front, outside the timed region.
	gen := fhir.NewGenerator(cfg.Seed, 0, 0)
	docs := make([]*model.Document, cfg.Inserts)
	for i := range docs {
		docs[i] = gen.Observation()
	}
	schema := shardingSchema().Name

	t0 := time.Now()
	err = conc.ForEach(ctx, len(docs), cfg.Users, func(gctx context.Context, i int) error {
		_, err := engine.Insert(gctx, schema, docs[i])
		return err
	})
	if err != nil {
		return ShardingRun{}, fmt.Errorf("bench: %d-shard insert phase: %w", n, err)
	}
	insertElapsed := time.Since(t0)

	queries := shardingQueries(cfg, docs, gen.Patients())
	t0 = time.Now()
	err = conc.ForEach(ctx, len(queries), cfg.Users, func(gctx context.Context, i int) error {
		_, err := engine.SearchIDs(gctx, schema, queries[i])
		return err
	})
	if err != nil {
		return ShardingRun{}, fmt.Errorf("bench: %d-shard query phase: %w", n, err)
	}
	queryElapsed := time.Since(t0)

	run := ShardingRun{Shards: n, InsertOps: len(docs), QueryOps: len(queries)}
	if insertElapsed > 0 {
		run.InsertThroughput = float64(run.InsertOps) / insertElapsed.Seconds()
	}
	if queryElapsed > 0 {
		run.QueryThroughput = float64(run.QueryOps) / queryElapsed.Seconds()
	}
	if total := insertElapsed + queryElapsed; total > 0 {
		run.AggregateThroughput = float64(run.InsertOps+run.QueryOps) / total.Seconds()
	}
	for _, rc := range raw {
		var st cloud.StatsReply
		if err := rc.Call(ctx, cloud.AdminService, "stats", nil, &st); err != nil {
			return ShardingRun{}, fmt.Errorf("bench: %d-shard stats: %w", n, err)
		}
		keyTotal := 0
		for _, ns := range st.Namespaces {
			keyTotal += ns.Keys
		}
		run.DocsPerShard = append(run.DocsPerShard, st.Collections[schema])
		run.IndexKeysPerShard = append(run.IndexKeysPerShard, keyTotal)
		run.BiexKeysPerShard = append(run.BiexKeysPerShard,
			st.Namespaces["emm"].Keys+st.Namespaces["zmf"].Keys)
	}
	for _, nc := range wrapped {
		run.RPCsPerShard = append(run.RPCsPerShard, int(nc.calls.Load()))
	}
	return run, nil
}

// RunSharding measures every configured tier size and derives the 4-vs-1
// aggregate speedup.
func RunSharding(ctx context.Context, cfg ShardingConfig) (ShardingResult, error) {
	if len(cfg.ShardCounts) == 0 || cfg.Inserts <= 0 || cfg.Users <= 0 ||
		cfg.NodeWidth <= 0 || cfg.EqQueries+cfg.BoolQueries+cfg.RangeQueries <= 0 {
		return ShardingResult{}, fmt.Errorf("bench: sharding config must be positive")
	}
	r := ShardingResult{Config: cfg}
	for _, n := range cfg.ShardCounts {
		if n < 1 {
			return ShardingResult{}, fmt.Errorf("bench: shard count must be >= 1 (got %d)", n)
		}
		fmt.Fprintf(os.Stderr, "  %d shard(s)...\n", n)
		run, err := runShardingDeployment(ctx, cfg, n)
		if err != nil {
			return ShardingResult{}, err
		}
		r.Runs = append(r.Runs, run)
	}
	var at1, at4, at8 float64
	for _, run := range r.Runs {
		switch run.Shards {
		case 1:
			at1 = run.AggregateThroughput
		case 4:
			at4 = run.AggregateThroughput
		case 8:
			at8 = run.AggregateThroughput
		}
	}
	if at1 > 0 && at4 > 0 {
		r.Speedup4v1 = at4 / at1
	}
	if at1 > 0 && at8 > 0 {
		r.Speedup8v1 = at8 / at1
	}
	return r, nil
}

// WriteShardingJSON writes the result to path as indented JSON, stamped
// with build/machine provenance.
func WriteShardingJSON(r ShardingResult, path string) error {
	r.Meta = CollectMeta()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatSharding renders the scaling curve as a table.
func FormatSharding(r ShardingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding experiment (%d inserts + %d queries, %d users, node width %d, service time %v)\n\n",
		r.Config.Inserts, r.Config.EqQueries+r.Config.BoolQueries+r.Config.RangeQueries,
		r.Config.Users, r.Config.NodeWidth, r.Config.ServiceTime)
	fmt.Fprintf(&b, "%6s %12s %12s %12s %10s %10s   %s\n",
		"shards", "insert/s", "query/s", "aggregate/s", "speedup", "biex-bal", "rpcs/shard")
	var base float64
	for _, run := range r.Runs {
		if run.Shards == 1 {
			base = run.AggregateThroughput
		}
	}
	for _, run := range r.Runs {
		su := "-"
		if base > 0 {
			su = fmt.Sprintf("%.2fx", run.AggregateThroughput/base)
		}
		bal := "-"
		if lo, hi := minMax(run.BiexKeysPerShard); lo > 0 {
			bal = fmt.Sprintf("%.2fx", float64(hi)/float64(lo))
		}
		fmt.Fprintf(&b, "%6d %12.1f %12.1f %12.1f %10s %10s   %v\n",
			run.Shards, run.InsertThroughput, run.QueryThroughput,
			run.AggregateThroughput, su, bal, run.RPCsPerShard)
	}
	if r.Speedup4v1 > 0 {
		fmt.Fprintf(&b, "\naggregate insert+query throughput at 4 shards: %.2fx the single-node tier\n", r.Speedup4v1)
	}
	if r.Speedup8v1 > 0 {
		fmt.Fprintf(&b, "aggregate insert+query throughput at 8 shards: %.2fx the single-node tier\n", r.Speedup8v1)
	}
	return b.String()
}

// minMax returns the smallest and largest element (0, 0 for empty input).
func minMax(xs []int) (lo, hi int) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
