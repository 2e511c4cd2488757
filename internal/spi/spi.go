// Package spi defines DataBlinder's Service Provider Interface (paper §4.2,
// Table 1): the contract between the middleware core and pluggable data
// protection tactics. Security experts implement these interfaces; the
// middleware loads the right implementations dynamically at runtime via the
// strategy pattern (the Registry's adaptive selection).
//
// A tactic instance is bound per (schema, tactic): cross-field structures
// like BIEX span every boolean-annotated field of a schema, while per-field
// behaviour is expressed by passing the field name on each operation.
package spi

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"datablinder/internal/cloud/ring"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/store/kvstore"
)

// Errors returned by the registry.
var (
	ErrUnknownTactic = errors.New("spi: unknown tactic")
	ErrNoTactic      = errors.New("spi: no tactic satisfies the annotation")
)

// Origin records whether the integration was written from scratch or
// adapted from an existing implementation (Table 2's last column).
type Origin string

// Origins.
const (
	OriginImplemented Origin = "implemented"
	OriginAdapted     Origin = "adapted"
)

// Descriptor reifies a tactic for the registry, the selection algorithm,
// and the Table 2 catalog: its leakage profile (per operation), protection
// class, supported operations, performance metadata, and SPI surface.
type Descriptor struct {
	// Name is the tactic's catalog name, e.g. "DET", "BIEX-2Lev".
	Name string
	// Operation is the high-level operation family the paper's Table 2
	// files the tactic under, e.g. "Equality Search".
	Operation string
	// Class is the protection class (0 for aggregate-only tactics, which
	// Table 2 marks "-" because they index nothing).
	Class model.Class
	// Leakage is the overall (weakest-operation) leakage level; 0 when
	// not applicable.
	Leakage model.Leakage
	// OpLeakage details leakage per tactic operation (Fig. 1).
	OpLeakage []model.OpLeakage
	// Ops are the data-access operations the tactic supports.
	Ops []model.Op
	// Aggs are the aggregate functions the tactic supports.
	Aggs []model.Agg
	// NumericOnly restricts the tactic to numeric fields (OPE, ORE,
	// Paillier).
	NumericOnly bool
	// GatewayInterfaces and CloudInterfaces name the Table 1 interfaces
	// each half implements; their lengths are Table 2's SPI counts.
	GatewayInterfaces []string
	CloudInterfaces   []string
	// Perf is the descriptive cost profile (Fig. 1's performance metrics).
	Perf model.PerfMetrics
	// Challenge is Table 2's integration-challenge note.
	Challenge string
	// Origin is Table 2's implementation provenance.
	Origin Origin
}

// SupportsOp reports whether the tactic offers op.
func (d Descriptor) SupportsOp(op model.Op) bool {
	for _, o := range d.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// SupportsAgg reports whether the tactic offers agg.
func (d Descriptor) SupportsAgg(agg model.Agg) bool {
	for _, a := range d.Aggs {
		if a == agg {
			return true
		}
	}
	return false
}

// SupportsType reports whether the tactic can protect a field of type t.
func (d Descriptor) SupportsType(t model.FieldType) bool {
	return !d.NumericOnly || t.Numeric()
}

// Binding carries the dependencies every tactic instance receives — the
// tactic commonalities of §4.2: key management, the channel to the cloud
// half, and gateway-local repository services.
type Binding struct {
	// Schema is the document type this instance serves.
	Schema string
	// Keys provides per-(schema, field, tactic, purpose) key material.
	Keys keys.Provider
	// Cloud routes calls to the tactic's cloud-side implementation: one
	// shard, or the consistent-hash ring of a sharded tier.
	Cloud *ring.Ring
	// Local is the gateway-side state store (counters, TDP states, ...).
	Local *kvstore.Store
}

// Key returns the key material of one (field, purpose) of tactic under the
// binding's schema.
func (b Binding) Key(tactic, field, purpose string) (primitives.Key, error) {
	return b.Keys.Key(keys.Ref{Schema: b.Schema, Field: field, Tactic: tactic, Purpose: purpose})
}

// Tactic is the mandatory surface of every gateway-side tactic instance:
// its write half. Prepare does the gateway-side work of indexing
// (op == model.OpInsert) or un-indexing (model.OpDelete) the named fields
// of one document — encryption, plus reserving counters in the local store
// — and appends the resulting cloud mutations to ws. It sends nothing and
// changes no local state a search can observe: what must only happen once
// the request is certain to ship (a per-document version bump) is
// registered with ws.OnCommit. fields is sorted and every name in it has a
// value in values (for deletes, the previously indexed one).
type Tactic interface {
	Prepare(ws *WriteSet, op model.Op, docID string, fields []string, values map[string]any) error
}

// Provisioner is the optional setup interface of §4.2, for tactics that
// generate and provision keys before first use (Sophos's trapdoor,
// Paillier's key pair); the engine runs Setup once per instance it builds.
// Setup must be idempotent.
type Provisioner interface {
	Setup(ctx context.Context) error
}

// EqSearcher answers equality queries on one field.
type EqSearcher interface {
	SearchEq(ctx context.Context, field string, value any) ([]string, error)
}

// BoolLiteral is one leaf of a boolean query: field = value, possibly
// negated.
type BoolLiteral struct {
	Field   string
	Value   any
	Negated bool
}

// BoolQuery is a cross-field boolean formula in DNF.
type BoolQuery [][]BoolLiteral

// BoolSearcher answers boolean queries spanning the schema's
// boolean-annotated fields.
type BoolSearcher interface {
	SearchBool(ctx context.Context, q BoolQuery) ([]string, error)
}

// RangeSearcher answers range queries on one numeric field. Nil bounds are
// unbounded; inclusivity is per bound.
type RangeSearcher interface {
	SearchRange(ctx context.Context, field string, lo, hi any, loInc, hiInc bool) ([]string, error)
}

// Compactor is an optional maintenance interface: tactics with amortized
// static structures (BIEX's 2Lev multimap) rebuild one keyword's cells
// into their read-efficient packed form.
type Compactor interface {
	Compact(ctx context.Context, field string, value any) error
}

// Aggregator computes an aggregate of a field over the given documents
// (cloud-side where the tactic allows, e.g. Paillier sums).
type Aggregator interface {
	Aggregate(ctx context.Context, field string, agg model.Agg, docIDs []string) (float64, error)
}

// Factory constructs a tactic instance for a binding.
type Factory func(Binding) (Tactic, error)

// Registration couples a descriptor with its factory.
type Registration struct {
	Descriptor Descriptor
	Factory    Factory
}

// Registry is the tactic catalog plus the adaptive selection algorithm.
// Populate it at startup (no global registration side effects); it is
// read-only afterwards and safe for concurrent use.
type Registry struct {
	byName map[string]Registration
	names  []string
}

// NewRegistry builds a registry from registrations.
func NewRegistry(regs ...Registration) (*Registry, error) {
	r := &Registry{byName: make(map[string]Registration, len(regs))}
	for _, reg := range regs {
		if reg.Descriptor.Name == "" {
			return nil, errors.New("spi: registration without a name")
		}
		if reg.Factory == nil {
			return nil, fmt.Errorf("spi: tactic %q has no factory", reg.Descriptor.Name)
		}
		if _, dup := r.byName[reg.Descriptor.Name]; dup {
			return nil, fmt.Errorf("spi: duplicate tactic %q", reg.Descriptor.Name)
		}
		r.byName[reg.Descriptor.Name] = reg
		r.names = append(r.names, reg.Descriptor.Name)
	}
	sort.Strings(r.names)
	return r, nil
}

// Names returns the registered tactic names, sorted.
func (r *Registry) Names() []string {
	return append([]string(nil), r.names...)
}

// Lookup returns the registration for name.
func (r *Registry) Lookup(name string) (Registration, error) {
	reg, ok := r.byName[name]
	if !ok {
		return Registration{}, fmt.Errorf("%w: %q", ErrUnknownTactic, name)
	}
	return reg, nil
}

// Descriptors returns all descriptors sorted by name.
func (r *Registry) Descriptors() []Descriptor {
	out := make([]Descriptor, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.byName[n].Descriptor)
	}
	return out
}

// Plan is the outcome of tactic selection for one field: which tactic
// serves each requested operation and aggregate.
type Plan struct {
	// ByOp maps each requested search/insert operation to a tactic name.
	ByOp map[model.Op]string
	// ByAgg maps each requested aggregate to a tactic name.
	ByAgg map[model.Agg]string
	// Tactics is the deduplicated, sorted set of tactic names involved.
	Tactics []string
}

// CostFn reports the estimated latency (nanoseconds) of running op
// through tactic, and whether an estimate exists at all. The engine wires
// this to the planner's live cost model; selection itself stays agnostic
// about where the numbers come from.
type CostFn func(tactic string, op model.Op) (ns float64, ok bool)

// SelectOptions parameterize tactic selection.
type SelectOptions struct {
	// Cheapest switches selection from the classic leakage-maximal rule
	// to cost-based planning: among the tactics tolerated by the field's
	// class, pick the one with the lowest workload-weighted cost. Requires
	// Cost; falls back to the classic rule for any operation where no
	// candidate has a cost estimate.
	Cheapest bool
	// Cost estimates per-(tactic, op) latency. In classic mode it only
	// refines tie-breaking among equal-leakage candidates; in Cheapest
	// mode it drives the ranking.
	Cost CostFn
	// Weights is the workload mix (relative op frequencies) used to weigh
	// per-op costs in Cheapest mode. Nil means uniform weights.
	Weights map[model.Op]float64
}

// Select runs tactic selection for one annotated field with the classic
// rule: for every requested operation it picks, among the registered
// tactics that support the operation and field type, the one with the
// *highest leakage still tolerated* by the field's protection class.
// This reproduces the paper's §5.1 selections: a C2 subject gets Mitra,
// a C1 performer gets RND, a C3 status gets BIEX. Ties break by name for
// determinism. Explicit pins in the annotation restrict the candidate set.
func (r *Registry) Select(field model.Field) (Plan, error) {
	return r.SelectWith(field, SelectOptions{})
}

// SelectWith is Select with an explicit cost model. The classic rule's
// leakage ranking assumed leakage and performance trade off monotonically
// across the catalog; that assumption breaks in practice (equal-leakage
// tactics invert cost rankings with workload shape), so equal-leakage
// candidates rank by measured cost when both have one, and Cheapest mode
// drops the leakage-as-cost-proxy entirely: it minimizes estimated cost
// over every tactic the field's class tolerates. Annotation pins always
// restrict the candidate set, and the class leakage ceiling is enforced
// in every mode — including over pinned candidates.
func (r *Registry) SelectWith(field model.Field, opts SelectOptions) (Plan, error) {
	ann := field.Annotation
	if err := ann.Validate(); err != nil {
		return Plan{}, err
	}
	candidates := r.names
	if len(ann.Tactics) > 0 {
		candidates = ann.Tactics
		for _, n := range candidates {
			if _, ok := r.byName[n]; !ok {
				return Plan{}, fmt.Errorf("%w: pinned %q on field %q", ErrUnknownTactic, n, field.Name)
			}
		}
	}

	plan := Plan{ByOp: make(map[model.Op]string), ByAgg: make(map[model.Agg]string)}
	insertDeferred := false
	for _, op := range ann.Ops {
		if op == model.OpRead || op == model.OpUpdate || op == model.OpDelete {
			continue // CRUD plumbing is engine-level, not index-level
		}
		if op == model.OpInsert && opts.Cheapest {
			// Defer: in cost mode the insert slot should reuse a tactic the
			// search ops already forced into the plan (every plan tactic
			// pays inserts anyway), instead of adding a new index.
			insertDeferred = true
			continue
		}
		op := op
		name, err := r.pick(field, candidates, op, func(d Descriptor) bool { return d.SupportsOp(op) }, opts)
		if err != nil {
			return Plan{}, fmt.Errorf("spi: field %q op %s: %w", field.Name, string(op), err)
		}
		plan.ByOp[op] = name
	}
	for _, agg := range ann.Aggs {
		switch agg {
		case model.AggCount, model.AggMin, model.AggMax:
			// Resolved at the gateway: count is the matching set's
			// cardinality; min/max fall back to fetch-and-compare. No
			// cloud-side tactic is involved.
			continue
		}
		name, err := r.pick(field, candidates, "", func(d Descriptor) bool { return d.SupportsAgg(agg) }, opts)
		if err != nil {
			return Plan{}, fmt.Errorf("spi: field %q agg %s: %w", field.Name, string(agg), err)
		}
		plan.ByAgg[agg] = name
	}
	if insertDeferred {
		pool := candidates
		if sub := r.insertCapable(field, plan); len(sub) > 0 {
			pool = sub
		}
		name, err := r.pick(field, pool, model.OpInsert, func(d Descriptor) bool { return d.SupportsOp(model.OpInsert) }, opts)
		if err != nil {
			return Plan{}, fmt.Errorf("spi: field %q op %s: %w", field.Name, string(model.OpInsert), err)
		}
		plan.ByOp[model.OpInsert] = name
	}

	seen := make(map[string]bool)
	for _, n := range plan.ByOp {
		if !seen[n] {
			seen[n] = true
			plan.Tactics = append(plan.Tactics, n)
		}
	}
	for _, n := range plan.ByAgg {
		if !seen[n] {
			seen[n] = true
			plan.Tactics = append(plan.Tactics, n)
		}
	}
	sort.Strings(plan.Tactics)
	return plan, nil
}

// insertCapable returns the plan's already-chosen tactics that can also
// absorb the field's inserts, sorted for determinism.
func (r *Registry) insertCapable(field model.Field, plan Plan) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		d := r.byName[n].Descriptor
		if d.SupportsOp(model.OpInsert) && d.SupportsType(field.Type) {
			out = append(out, n)
		}
	}
	for _, n := range plan.ByOp {
		add(n)
	}
	for _, n := range plan.ByAgg {
		add(n)
	}
	sort.Strings(out)
	return out
}

// eligible filters candidates by capability, field type, and the class
// leakage ceiling.
func (r *Registry) eligible(field model.Field, candidates []string, ok func(Descriptor) bool) []string {
	var out []string
	for _, n := range candidates {
		d := r.byName[n].Descriptor
		if !ok(d) || !d.SupportsType(field.Type) {
			continue
		}
		// Aggregate-only tactics (Leakage 0) index nothing searchable and
		// always satisfy the ceiling.
		if d.Leakage != 0 && !field.Annotation.Class.Tolerates(d.Leakage) {
			continue
		}
		out = append(out, n)
	}
	return out
}

// pick selects one tactic for op among candidates. Classic mode ranks by
// highest tolerated leakage; equal-leakage ties rank by measured cost
// when the cost model has estimates for both (the catalog's leakage
// ordering is not a reliable cost ordering), and by name otherwise.
// Cheapest mode ranks by workload-weighted estimated cost across the ops
// the tactic would serve (the requested op plus the insert/delete
// maintenance it must absorb as a plan member), falling back to the
// classic rule when no candidate has any estimate. costOp is "" for
// aggregate picks, which carry no per-op cost series.
func (r *Registry) pick(field model.Field, candidates []string, costOp model.Op, ok func(Descriptor) bool, opts SelectOptions) (string, error) {
	pool := r.eligible(field, candidates, ok)
	if len(pool) == 0 {
		return "", fmt.Errorf("%w (class %s, type %s)", ErrNoTactic, field.Annotation.Class, string(field.Type))
	}
	if opts.Cheapest && opts.Cost != nil && costOp != "" {
		if best, found := r.pickCheapest(pool, costOp, opts); found {
			return best, nil
		}
	}
	best := pool[0]
	bestLeak := r.byName[best].Descriptor.Leakage
	bestCost, bestHasCost := pickCost(opts, best, costOp)
	for _, n := range pool[1:] {
		leak := r.byName[n].Descriptor.Leakage
		cost, hasCost := pickCost(opts, n, costOp)
		better := false
		switch {
		case leak != bestLeak:
			better = leak > bestLeak
		case hasCost && bestHasCost && cost != bestCost:
			better = cost < bestCost
		default:
			better = n < best
		}
		if better {
			best, bestLeak, bestCost, bestHasCost = n, leak, cost, hasCost
		}
	}
	return best, nil
}

// pickCost evaluates the tie-break cost of one candidate, when available.
func pickCost(opts SelectOptions, tactic string, costOp model.Op) (float64, bool) {
	if opts.Cost == nil || costOp == "" {
		return 0, false
	}
	return opts.Cost(tactic, costOp)
}

// pickCheapest ranks pool by workload-weighted estimated cost. A tactic's
// score covers the requested op plus insert/delete maintenance, weighted
// by the observed workload mix. found is false when no candidate has any
// estimate (the caller then falls back to the classic rule).
func (r *Registry) pickCheapest(pool []string, costOp model.Op, opts SelectOptions) (string, bool) {
	group := []model.Op{costOp}
	if costOp != model.OpInsert {
		group = append(group, model.OpInsert)
	}
	if costOp != model.OpDelete {
		group = append(group, model.OpDelete)
	}
	weight := func(op model.Op) float64 {
		if opts.Weights == nil {
			return 1
		}
		return opts.Weights[op]
	}
	best, bestScore := "", 0.0
	var bestLeak model.Leakage = -1
	for _, n := range pool {
		score, any := 0.0, false
		for _, op := range group {
			if c, ok := opts.Cost(n, op); ok {
				score += weight(op) * c
				any = true
			}
		}
		if !any {
			continue
		}
		leak := r.byName[n].Descriptor.Leakage
		better := false
		switch {
		case best == "":
			better = true
		case score != bestScore:
			better = score < bestScore
		case leak != bestLeak:
			// Equal cost: the higher-leakage tactic is usually the simpler
			// mechanism; prefer it, matching the classic rule's intuition.
			better = leak > bestLeak
		default:
			better = n < best
		}
		if better {
			best, bestScore, bestLeak = n, score, leak
		}
	}
	return best, best != ""
}

// EffectiveClass computes a field's protection level under the
// weakest-link rule: the class of the highest-leakage tactic in the plan.
func (r *Registry) EffectiveClass(p Plan) model.Class {
	var worst model.Leakage
	for _, n := range p.Tactics {
		if d, ok := r.byName[n]; ok && d.Descriptor.Leakage > worst {
			worst = d.Descriptor.Leakage
		}
	}
	if worst == 0 {
		return model.Class1
	}
	return model.ClassForLeakage(worst)
}

// SPIMap reproduces the paper's Table 1: the gateway and cloud interfaces
// required per high-level operation.
func SPIMap() map[string]struct{ Gateway, Cloud []string } {
	return map[string]struct{ Gateway, Cloud []string }{
		"Insert": {
			Gateway: []string{"Insertion", "DocIDGen", "SecureEnc"},
			Cloud:   []string{"Insertion"},
		},
		"Update": {
			Gateway: []string{"Update", "DocIDGen", "Retrieval", "SecureEnc"},
			Cloud:   []string{"Update", "Retrieval"},
		},
		"Delete": {
			Gateway: []string{"Deletion"},
			Cloud:   []string{"Deletion"},
		},
		"Read": {
			Gateway: []string{"Retrieval", "SecureEnc"},
			Cloud:   []string{"Retrieval"},
		},
		"Equality Search": {
			Gateway: []string{"EqQuery", "EqResolution", "<Read>"},
			Cloud:   []string{"EqQuery"},
		},
		"Boolean Search": {
			Gateway: []string{"BoolQuery", "BoolResolution", "<Read>"},
			Cloud:   []string{"BoolQuery"},
		},
		"Aggregate": {
			Gateway: []string{"<Query>", "AggFunctionResolution"},
			Cloud:   []string{"AggFunction"},
		},
	}
}
