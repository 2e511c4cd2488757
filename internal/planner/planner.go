// Package planner holds DataBlinder's runtime cost model: engine-resident
// per-tactic, per-operation observed costs (EWMA latency, RPC counts, wire
// bytes) promoted out of the benchmark harness, plus the estimation logic
// the adaptive tactic planner uses to rank tactics by *measured* cost
// instead of assuming leakage and performance trade off monotonically.
//
// A Stats instance rides inside one engine; every instance counts in the
// expvar "datablinder_tactics" until it is closed (visible on the -pprof
// listener next to datablinder_wire / datablinder_coalesce /
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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datablinder/internal/model"
	"datablinder/internal/obs"
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

	// rpcs counts cloud RPCs per tactic family (indexed like families),
	// recorded by the conn wrapper interposed outside the write coalescer
	// (so one caller-issued sub-call counts once, however it is batched
	// downstream).
	rpcs [len(families)]atomic.Uint64
}

// NewStats builds an empty Stats, counted in the "datablinder_tactics"
// expvar until Close.
func NewStats() *Stats {
	s := &Stats{
		ops:    make(map[Key]*opStat),
		fields: make(map[fieldKey]uint64),
		docs:   make(map[string]int64),
		seeded: make(map[string]bool),
		priors: make(map[Key]model.CostPrior),
	}
	live.Join(s)
	return s
}

// Close removes s from the "datablinder_tactics" expvar (engines of
// closed clients, benchmark arms). s stays usable.
func (s *Stats) Close() { live.Leave(s) }

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

// RPC counts n cloud sub-calls against a service. A service of no tactic
// (doc storage, batching) is plumbing and is not counted.
func (s *Stats) RPC(service string, n uint64) {
	if f := family(service); f >= 0 {
		s.rpcs[f].Add(n)
	}
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

// families are the catalog tactic families cloud services belong to.
var families = [...]string{"DET", "RND", "Mitra", "Sophos", "BIEX", "OPE", "ORE", "Paillier"}

// family returns the index in families of the tactic a cloud RPC service
// belongs to, or -1 for plumbing like doc storage or batching.
func family(service string) int {
	switch service {
	case "det":
		return 0
	case "rnd":
		return 1
	case "mitra":
		return 2
	case "sophos":
		return 3
	case "biex":
		return 4
	case "ope":
		return 5
	case "ore":
		return 6
	case "agg", "paillier":
		return 7
	}
	return -1
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

// live is every open Stats, published as expvar "datablinder_tactics".
var live = obs.NewSet("datablinder_tactics", snapshotOf)

// Snapshot renders the current counters. Wire bytes come from the
// process-wide transport counters, attributed to tactics by service name.
func (s *Stats) Snapshot() Snapshot { return snapshotOf(s) }

// snapshotOf sums the counters of ss into one snapshot: counts, RPCs,
// documents and migrations add, an average is over every sample, and the
// EWMAs are those of the last member that has the series.
func snapshotOf(ss ...*Stats) Snapshot {
	snap := Snapshot{Tactics: make(map[string]TacticSnapshot), Docs: make(map[string]int64)}
	if len(ss) == 0 {
		return snap
	}
	tactic := func(name string) TacticSnapshot {
		t := snap.Tactics[name]
		if t.Ops == nil {
			t.Ops = make(map[string]OpSnapshot)
		}
		return t
	}
	totalNs := make(map[Key]float64)
	for _, s := range ss {
		s.mu.Lock()
		for k, st := range s.ops {
			t := tactic(k.Tactic)
			o := t.Ops[string(k.Op)]
			o.Count += st.count
			totalNs[k] += st.totalNs
			o.AvgMs = totalNs[k] / float64(o.Count) / 1e6
			o.EwmaMs, o.AtDocs = st.ewmaNs/1e6, st.ewmaDocs
			t.Ops[string(k.Op)] = o
			snap.Tactics[k.Tactic] = t
		}
		for schema, n := range s.docs {
			snap.Docs[schema] += n
		}
		snap.Migrations += s.migs
		s.mu.Unlock()
		for f := range s.rpcs {
			if n := s.rpcs[f].Load(); n > 0 {
				t := tactic(families[f])
				t.RPCs += n
				snap.Tactics[families[f]] = t
			}
		}
	}
	for method, m := range transport.WireStats().Methods {
		service, _, _ := strings.Cut(method, ".")
		if f := family(service); f >= 0 {
			t := tactic(families[f])
			t.WireBytes += m.BytesOut + m.BytesIn
			snap.Tactics[families[f]] = t
		}
	}
	return snap
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
