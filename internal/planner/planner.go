// Package planner holds DataBlinder's runtime cost model: engine-resident
// per-tactic, per-operation observed costs (EWMA latency, RPC counts, wire
// bytes) promoted out of the benchmark harness, plus the estimation logic
// the adaptive tactic planner uses to rank tactics by *measured* cost
// instead of assuming leakage and performance trade off monotonically.
//
// A Stats instance rides inside one engine; every instance registers into
// a process-wide list exported as expvar "datablinder_tactics" (visible on
// the -pprof listener next to datablinder_wire / datablinder_coalesce /
// datablinder_store).
//
// Cost estimation combines two sources:
//
//   - Measured: an EWMA of gateway-observed operation latency per
//     (tactic, op), recorded together with an EWMA of the corpus size at
//     measurement time. Estimates for other corpus sizes reuse the
//     descriptor prior's *shape* (est = ewma × prior(N)/prior(N_measured)),
//     so an O(N) tactic measured on a small corpus is correctly predicted
//     to degrade as the corpus grows.
//   - Priors: the descriptor's numeric per-op CostPrior (microseconds,
//     Fixed + PerDoc×N), scaled by a global calibration factor derived
//     from whatever (tactic, op) pairs *have* been measured, so priors and
//     measurements stay comparable on the same hardware.
package planner

import (
	"context"
	"expvar"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datablinder/internal/model"
	"datablinder/internal/transport"
)

// ewmaAlpha weights the newest sample in the latency averages. 0.2 reacts
// within tens of operations without flapping on one outlier.
const ewmaAlpha = 0.2

// MinSamples is how many observations a (tactic, op) needs before its EWMA
// outranks the prior-based estimate (and before the classic selector's
// cost tie-break considers the pair measured at all).
const MinSamples = 8

// Key identifies one (tactic, operation) cost series.
type Key struct {
	Tactic string
	Op     model.Op
}

type opStat struct {
	count   uint64
	totalNs float64
	ewmaNs  float64
	// ewmaDocs tracks the corpus size the latencies were observed at, so
	// estimates can be re-shaped to other corpus sizes via the prior.
	ewmaDocs float64
}

type fieldKey struct {
	Schema string
	Field  string
	Op     model.Op
}

// Stats is one engine's live tactic cost counters. All methods are safe
// for concurrent use.
type Stats struct {
	mu     sync.Mutex
	ops    map[Key]*opStat
	fields map[fieldKey]uint64
	docs   map[string]int64 // schema -> live document estimate
	seeded map[string]bool  // schema -> docs was seeded from a real count
	priors map[Key]model.CostPrior
	migs   uint64 // completed online re-indexes

	// rpcs counts cloud RPCs per service name, recorded by the conn
	// wrapper interposed outside the write coalescer (so one caller-issued
	// sub-call counts once, however it is batched downstream).
	rpcs sync.Map // string -> *atomic.Uint64
}

// NewStats builds an empty Stats.
func NewStats() *Stats {
	return &Stats{
		ops:    make(map[Key]*opStat),
		fields: make(map[fieldKey]uint64),
		docs:   make(map[string]int64),
		seeded: make(map[string]bool),
		priors: make(map[Key]model.CostPrior),
	}
}

// SetPriors installs the descriptor cost priors (used for calibration and
// for estimating unmeasured tactics). Call once at engine construction.
func (s *Stats) SetPriors(p map[Key]model.CostPrior) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range p {
		s.priors[k] = v
	}
}

// Record observes one completed operation: latency feeds the (tactic, op)
// EWMA, and each touched field's op counter feeds the per-field workload
// rates the planner weighs costs by.
func (s *Stats) Record(schema string, fields []string, tactic string, op model.Op, d time.Duration) {
	ns := float64(d.Nanoseconds())
	s.mu.Lock()
	defer s.mu.Unlock()
	k := Key{Tactic: tactic, Op: op}
	st := s.ops[k]
	if st == nil {
		st = &opStat{}
		s.ops[k] = st
	}
	docs := float64(s.docs[schema])
	st.count++
	st.totalNs += ns
	if st.count == 1 {
		st.ewmaNs = ns
		st.ewmaDocs = docs
	} else {
		st.ewmaNs += ewmaAlpha * (ns - st.ewmaNs)
		st.ewmaDocs += ewmaAlpha * (docs - st.ewmaDocs)
	}
	for _, f := range fields {
		s.fields[fieldKey{Schema: schema, Field: f, Op: op}]++
	}
}

// DocDelta adjusts a schema's live document estimate (insert +1, delete -1).
func (s *Stats) DocDelta(schema string, d int64) {
	s.mu.Lock()
	s.docs[schema] += d
	s.mu.Unlock()
}

// SeedDocs installs an authoritative document count for a schema, unless
// one was already seeded (deltas keep it current afterwards).
func (s *Stats) SeedDocs(schema string, n int64) {
	s.mu.Lock()
	if !s.seeded[schema] {
		s.seeded[schema] = true
		s.docs[schema] = n
	}
	s.mu.Unlock()
}

// DocsSeeded reports whether SeedDocs ran for schema.
func (s *Stats) DocsSeeded(schema string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seeded[schema]
}

// Docs returns the schema's live document estimate.
func (s *Stats) Docs(schema string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docs[schema]
}

// FieldRates returns a field's per-op observed operation counts — the
// workload mix the planner weighs per-op costs by.
func (s *Stats) FieldRates(schema, field string) map[model.Op]float64 {
	out := make(map[model.Op]float64)
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, n := range s.fields {
		if k.Schema == schema && k.Field == field {
			out[k.Op] = float64(n)
		}
	}
	return out
}

// RPC counts one cloud sub-call against a service.
func (s *Stats) RPC(service string, n uint64) {
	v, ok := s.rpcs.Load(service)
	if !ok {
		v, _ = s.rpcs.LoadOrStore(service, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Add(n)
}

// MigrationDone counts one completed online re-index.
func (s *Stats) MigrationDone() {
	s.mu.Lock()
	s.migs++
	s.mu.Unlock()
}

// calibrationLocked returns the average measured/prior ratio over every
// (tactic, op) with enough samples and a usable prior, anchoring
// prior-only estimates to this machine's speed. 1 when nothing is
// measured yet (priors then rank tactics by their relative magnitudes,
// which is all selection needs).
func (s *Stats) calibrationLocked() float64 {
	sum, n := 0.0, 0
	for k, st := range s.ops {
		if st.count < MinSamples {
			continue
		}
		p, ok := s.priors[k]
		if !ok || p.Zero() {
			continue
		}
		at := p.At(st.ewmaDocs) * 1e3 // prior is µs, EWMA is ns
		if at <= 0 {
			continue
		}
		sum += st.ewmaNs / at
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Cost estimates the latency (ns) of one (tactic, op) at a corpus of docs
// documents, preferring measured EWMAs and falling back to calibrated
// priors. ok is false when neither a measurement nor a prior exists.
func (s *Stats) Cost(tactic string, op model.Op, prior model.CostPrior, docs float64) (ns float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := Key{Tactic: tactic, Op: op}
	if st := s.ops[k]; st != nil && st.count >= MinSamples {
		est := st.ewmaNs
		if prior.PerDoc > 0 {
			// Re-shape the measurement to the requested corpus size using
			// the prior's growth curve.
			if base := prior.At(st.ewmaDocs); base > 0 {
				est = est * prior.At(docs) / base
			}
		}
		return est, true
	}
	if prior.Zero() {
		return 0, false
	}
	return prior.At(docs) * 1e3 * s.calibrationLocked(), true
}

// MeasuredCost is Cost restricted to pairs with live measurements: it
// never falls back to priors. The classic (leakage-maximal) selector uses
// it so equal-leakage ties rank by *measured* cost when the engine has
// observed both candidates, and keep the historical name tie-break —
// deterministic across deployments — when it has not.
func (s *Stats) MeasuredCost(tactic string, op model.Op, prior model.CostPrior, docs float64) (ns float64, ok bool) {
	s.mu.Lock()
	st := s.ops[Key{Tactic: tactic, Op: op}]
	measured := st != nil && st.count >= MinSamples
	s.mu.Unlock()
	if !measured {
		return 0, false
	}
	return s.Cost(tactic, op, prior, docs)
}

// serviceTactic maps a cloud RPC service name to the catalog tactic family
// it belongs to ("" for non-tactic plumbing like doc storage or batching).
func serviceTactic(service string) string {
	switch service {
	case "det":
		return "DET"
	case "rnd":
		return "RND"
	case "mitra":
		return "Mitra"
	case "sophos":
		return "Sophos"
	case "biex":
		return "BIEX"
	case "ope":
		return "OPE"
	case "ore":
		return "ORE"
	case "agg", "paillier":
		return "Paillier"
	}
	return ""
}

// OpSnapshot is one (tactic, op) series in a Snapshot.
type OpSnapshot struct {
	Count  uint64  `json:"count"`
	AvgMs  float64 `json:"avg_ms"`
	EwmaMs float64 `json:"ewma_ms"`
	AtDocs float64 `json:"at_docs"`
}

// TacticSnapshot aggregates one tactic's series plus its wire activity.
type TacticSnapshot struct {
	Ops       map[string]OpSnapshot `json:"ops"`
	RPCs      uint64                `json:"rpcs"`
	WireBytes uint64                `json:"wire_bytes"`
}

// Snapshot is the exported state of one or more Stats instances, as
// published under the "datablinder_tactics" expvar.
type Snapshot struct {
	Tactics    map[string]TacticSnapshot `json:"tactics"`
	Docs       map[string]int64          `json:"docs"`
	Migrations uint64                    `json:"migrations"`
}

// Snapshot renders the current counters. Wire bytes come from the
// process-wide transport counters, attributed to tactics by service name.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{Tactics: make(map[string]TacticSnapshot), Docs: make(map[string]int64)}
	wire := transport.WireStats()
	bytesByTactic := make(map[string]uint64)
	for method, m := range wire.Methods {
		service, _, _ := strings.Cut(method, ".")
		if t := serviceTactic(service); t != "" {
			bytesByTactic[t] += m.BytesOut + m.BytesIn
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, st := range s.ops {
		t := snap.Tactics[k.Tactic]
		if t.Ops == nil {
			t.Ops = make(map[string]OpSnapshot)
		}
		t.Ops[string(k.Op)] = OpSnapshot{
			Count:  st.count,
			AvgMs:  st.totalNs / float64(st.count) / 1e6,
			EwmaMs: st.ewmaNs / 1e6,
			AtDocs: st.ewmaDocs,
		}
		snap.Tactics[k.Tactic] = t
	}
	s.rpcs.Range(func(key, v any) bool {
		tn := serviceTactic(key.(string))
		if tn == "" {
			return true
		}
		t := snap.Tactics[tn]
		if t.Ops == nil {
			t.Ops = make(map[string]OpSnapshot)
		}
		t.RPCs += v.(*atomic.Uint64).Load()
		snap.Tactics[tn] = t
		return true
	})
	for name, b := range bytesByTactic {
		t := snap.Tactics[name]
		if t.Ops == nil {
			t.Ops = make(map[string]OpSnapshot)
		}
		t.WireBytes = b
		snap.Tactics[name] = t
	}
	for schema, n := range s.docs {
		snap.Docs[schema] = n
	}
	snap.Migrations = s.migs
	return snap
}

// Merge folds other into s (expvar aggregation across engines).
func (snap *Snapshot) merge(other Snapshot) {
	for name, t := range other.Tactics {
		cur := snap.Tactics[name]
		if cur.Ops == nil {
			cur.Ops = make(map[string]OpSnapshot)
		}
		for op, o := range t.Ops {
			c := cur.Ops[op]
			total := c.Count + o.Count
			if total > 0 {
				c.AvgMs = (c.AvgMs*float64(c.Count) + o.AvgMs*float64(o.Count)) / float64(total)
			}
			c.Count = total
			c.EwmaMs = o.EwmaMs // latest-writer wins; per-engine detail is in each engine's Stats
			c.AtDocs = o.AtDocs
			cur.Ops[op] = c
		}
		cur.RPCs += t.RPCs
		if t.WireBytes > cur.WireBytes {
			cur.WireBytes = t.WireBytes // process-wide counters, not additive
		}
		snap.Tactics[name] = cur
	}
	for schema, n := range other.Docs {
		snap.Docs[schema] += n
	}
	snap.Migrations += other.Migrations
}

var (
	regMu      sync.Mutex
	registered []*Stats
	publish    sync.Once
)

// Register adds a Stats instance to the process-wide "datablinder_tactics"
// expvar aggregation.
func Register(s *Stats) {
	regMu.Lock()
	registered = append(registered, s)
	regMu.Unlock()
	publish.Do(func() {
		expvar.Publish("datablinder_tactics", expvar.Func(func() any {
			out := Snapshot{Tactics: make(map[string]TacticSnapshot), Docs: make(map[string]int64)}
			regMu.Lock()
			defer regMu.Unlock()
			for _, s := range registered {
				snap := s.Snapshot()
				out.merge(snap)
			}
			return out
		}))
	})
}

// Unregister removes a Stats instance from the expvar aggregation
// (engines of closed clients, benchmark arms).
func Unregister(s *Stats) {
	regMu.Lock()
	defer regMu.Unlock()
	for i, r := range registered {
		if r == s {
			registered = append(registered[:i], registered[i+1:]...)
			return
		}
	}
}

// SortedTactics returns the snapshot's tactic names, sorted (stable
// rendering for logs and docs).
func (snap Snapshot) SortedTactics() []string {
	out := make([]string, 0, len(snap.Tactics))
	for n := range snap.Tactics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// statsConn counts cloud sub-calls per service. It sits *outside* the
// write coalescer (caller → stats → coalesce → transport), so one logical
// sub-call counts once regardless of downstream batching, and ring
// placement is untouched (the wrapping happens via Ring.WithConns).
type statsConn struct {
	under transport.Conn
	s     *Stats
}

// WrapConn interposes RPC counting on one shard connection.
func WrapConn(conn transport.Conn, s *Stats) transport.Conn {
	return &statsConn{under: conn, s: s}
}

func (c *statsConn) Call(ctx context.Context, service, method string, args, reply any) error {
	c.s.RPC(service, 1)
	return c.under.Call(ctx, service, method, args, reply)
}

func (c *statsConn) Close() error { return c.under.Close() }

// CallBatch preserves downstream batching: the coalescer's CallBatch path
// must see the batch whole, not one call at a time.
func (c *statsConn) CallBatch(ctx context.Context, calls []transport.BatchCall) ([]transport.BatchResult, error) {
	for _, call := range calls {
		c.s.RPC(call.Service, 1)
	}
	return transport.CallBatch(ctx, c.under, calls)
}
