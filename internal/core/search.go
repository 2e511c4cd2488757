// Search planning and execution: predicate trees are routed to the tactic
// plans selected at schema registration (adaptive selection at runtime,
// strategy pattern), with gateway-side set resolution for mixed queries.

package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/conc"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/transport"
)

// SearchIDs evaluates a predicate tree and returns matching document ids,
// sorted. Planning order:
//
//  1. If every leaf is an equality on a field whose plan routes boolean
//     search to the same tactic, the whole tree compiles to one DNF query
//     executed cloud-side (BIEX). On a sharded tier the tactic fans the
//     query's conjunctions out to the shards owning their anchor keywords
//     and merges — boolean search scatter-gathers like every other class.
//  2. Otherwise the tree is evaluated recursively: leaves dispatch to the
//     per-field equality/range tactic; AND/OR/NOT combine id sets at the
//     gateway (the EqResolution/BoolResolution interfaces).
func (e *Engine) SearchIDs(ctx context.Context, schema string, p Predicate) ([]string, error) {
	rt, err := e.runtime(schema)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return e.allIDs(ctx, schema)
	}
	if ids, ok, err := e.tryBooleanPath(ctx, rt, p); err != nil {
		return nil, err
	} else if ok {
		sort.Strings(ids)
		return ids, nil
	}
	set, err := e.eval(ctx, rt, p)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// Search evaluates a predicate and returns the decrypted documents.
func (e *Engine) Search(ctx context.Context, schema string, p Predicate) ([]*model.Document, error) {
	ids, err := e.SearchIDs(ctx, schema, p)
	if err != nil {
		return nil, err
	}
	return e.Fetch(ctx, schema, ids)
}

// tryBooleanPath attempts the single-query BIEX route.
func (e *Engine) tryBooleanPath(ctx context.Context, rt *schemaRuntime, p Predicate) ([]string, bool, error) {
	q, err := compileDNF(p, false)
	if err != nil {
		return nil, false, nil // not a pure boolean tree; fall back
	}
	if !boolQueryValid(q) {
		return nil, false, nil
	}
	// All referenced fields must route boolean search to one shared tactic.
	tactic := ""
	for _, conj := range q {
		for _, lit := range conj {
			plan, ok := rt.plans[lit.Field]
			if !ok {
				return nil, false, nil
			}
			name, ok := plan.ByOp[model.OpBoolean]
			if !ok {
				return nil, false, nil
			}
			if tactic == "" {
				tactic = name
			} else if tactic != name {
				return nil, false, nil
			}
		}
	}
	// Single-leaf trees with a cheaper equality tactic use that instead.
	if len(q) == 1 && len(q[0]) == 1 && !q[0][0].Negated {
		lit := q[0][0]
		if name, ok := rt.plans[lit.Field].ByOp[model.OpEquality]; ok && name != tactic {
			return nil, false, nil
		}
	}
	bs, ok := rt.instances[tactic].(spi.BoolSearcher)
	if !ok {
		return nil, false, nil
	}
	fieldSet := make(map[string]bool)
	var fields []string
	for _, conj := range q {
		for _, lit := range conj {
			if !fieldSet[lit.Field] {
				fieldSet[lit.Field] = true
				fields = append(fields, lit.Field)
			}
		}
	}
	start := time.Now()
	ids, err := bs.SearchBool(ctx, q)
	if err != nil {
		return nil, false, err
	}
	e.stats.Record(rt.schema.Name, fields, tactic, model.OpBoolean, time.Since(start))
	return ids, true, nil
}

type idSet map[string]struct{}

func (e *Engine) eval(ctx context.Context, rt *schemaRuntime, p Predicate) (idSet, error) {
	switch q := p.(type) {
	case Eq:
		ids, err := e.evalEq(ctx, rt, q)
		if err != nil {
			return nil, err
		}
		return toSet(ids), nil
	case Range:
		ids, err := e.evalRange(ctx, rt, q)
		if err != nil {
			return nil, err
		}
		return toSet(ids), nil
	case And:
		return e.evalAnd(ctx, rt, q)
	case Or:
		sets, err := e.evalChildren(ctx, rt, q.Preds)
		if err != nil {
			return nil, err
		}
		out := make(idSet)
		for _, s := range sets {
			for id := range s {
				out[id] = struct{}{}
			}
		}
		return out, nil
	case Not:
		// Complement against the document universe. Correct but O(N);
		// prefer NOT under AND, which subtracts instead.
		universe, err := e.allIDs(ctx, rt.schema.Name)
		if err != nil {
			return nil, err
		}
		sub, err := e.eval(ctx, rt, q.Pred)
		if err != nil {
			return nil, err
		}
		out := make(idSet, len(universe))
		for _, id := range universe {
			if _, drop := sub[id]; !drop {
				out[id] = struct{}{}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown predicate %T", ErrUnsupportedQuery, p)
	}
}

// evalChildren evaluates sibling predicates concurrently with first-error
// cancellation. Children are independent leaf RPCs or subtrees, so
// concurrency turns k serialized round trips into one round-trip time.
func (e *Engine) evalChildren(ctx context.Context, rt *schemaRuntime, preds []Predicate) ([]idSet, error) {
	sets := make([]idSet, len(preds))
	if len(preds) <= 1 {
		for i, child := range preds {
			s, err := e.eval(ctx, rt, child)
			if err != nil {
				return nil, err
			}
			sets[i] = s
		}
		return sets, nil
	}
	err := conc.ForEach(ctx, len(preds), 0, func(gctx context.Context, i int) error {
		s, err := e.eval(gctx, rt, preds[i])
		if err != nil {
			return err
		}
		sets[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sets, nil
}

// evalAnd intersects positive children, then subtracts negated ones. All
// children evaluate concurrently; the set algebra happens gateway-side
// once the last child lands. (An empty-intersection short-circuit is
// deliberately traded for latency overlap: the common case is a selective
// conjunction whose wall-clock is its slowest leaf.)
func (e *Engine) evalAnd(ctx context.Context, rt *schemaRuntime, q And) (idSet, error) {
	if len(q.Preds) == 0 {
		return nil, fmt.Errorf("%w: empty AND", ErrUnsupportedQuery)
	}
	var positives []Predicate
	var negatives []Predicate
	for _, child := range q.Preds {
		if n, isNot := child.(Not); isNot {
			negatives = append(negatives, n.Pred)
		} else {
			positives = append(positives, child)
		}
	}
	posSets, err := e.evalChildren(ctx, rt, positives)
	if err != nil {
		return nil, err
	}
	negSets, err := e.evalChildren(ctx, rt, negatives)
	if err != nil {
		return nil, err
	}
	var acc idSet
	if len(positives) == 0 {
		// AND of pure negations: complement against the universe.
		universe, err := e.allIDs(ctx, rt.schema.Name)
		if err != nil {
			return nil, err
		}
		acc = toSet(universe)
	}
	for _, s := range posSets {
		if acc == nil {
			acc = s
			continue
		}
		for id := range acc {
			if _, ok := s[id]; !ok {
				delete(acc, id)
			}
		}
	}
	for _, s := range negSets {
		for id := range s {
			delete(acc, id)
		}
	}
	return acc, nil
}

func (e *Engine) evalEq(ctx context.Context, rt *schemaRuntime, q Eq) ([]string, error) {
	plan, ok := rt.plans[q.Field]
	if !ok {
		return nil, fmt.Errorf("%w: field %q is not searchable", ErrUnsupportedQuery, q.Field)
	}
	name, ok := plan.ByOp[model.OpEquality]
	if !ok {
		// A field annotated only for boolean search still answers a single
		// equality through its boolean tactic.
		if bname, bok := plan.ByOp[model.OpBoolean]; bok {
			name = bname
		} else {
			return nil, fmt.Errorf("%w: field %q has no equality tactic", ErrUnsupportedQuery, q.Field)
		}
	}
	es, ok := rt.instances[name].(spi.EqSearcher)
	if !ok {
		return nil, fmt.Errorf("%w: tactic %s cannot search equality", ErrUnsupportedQuery, name)
	}
	v, err := canonicalQueryValue(rt.schema, q.Field, q.Value)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ids, err := es.SearchEq(ctx, q.Field, v)
	if err != nil {
		return nil, err
	}
	e.stats.Record(rt.schema.Name, []string{q.Field}, name, model.OpEquality, time.Since(start))
	return ids, nil
}

func (e *Engine) evalRange(ctx context.Context, rt *schemaRuntime, q Range) ([]string, error) {
	plan, ok := rt.plans[q.Field]
	if !ok {
		return nil, fmt.Errorf("%w: field %q is not searchable", ErrUnsupportedQuery, q.Field)
	}
	name, ok := plan.ByOp[model.OpRange]
	if !ok {
		return nil, fmt.Errorf("%w: field %q has no range tactic", ErrUnsupportedQuery, q.Field)
	}
	rs, ok := rt.instances[name].(spi.RangeSearcher)
	if !ok {
		return nil, fmt.Errorf("%w: tactic %s cannot search ranges", ErrUnsupportedQuery, name)
	}
	var lo, hi any
	var err error
	if q.Lo != nil {
		if lo, err = canonicalQueryValue(rt.schema, q.Field, q.Lo); err != nil {
			return nil, err
		}
	}
	if q.Hi != nil {
		if hi, err = canonicalQueryValue(rt.schema, q.Field, q.Hi); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	ids, err := rs.SearchRange(ctx, q.Field, lo, hi, q.LoInc, q.HiInc)
	if err != nil {
		return nil, err
	}
	e.stats.Record(rt.schema.Name, []string{q.Field}, name, model.OpRange, time.Since(start))
	return ids, nil
}

// canonicalQueryValue normalizes a query literal the same way stored
// values are normalized, so tokens match index entries.
func canonicalQueryValue(s *model.Schema, field string, v any) (any, error) {
	f, ok := s.Field(field)
	if !ok {
		return nil, fmt.Errorf("%w: unknown field %q", ErrUnsupportedQuery, field)
	}
	return canonicalValue(f.Type, v)
}

func toSet(ids []string) idSet {
	out := make(idSet, len(ids))
	for _, id := range ids {
		out[id] = struct{}{}
	}
	return out
}

// allIDs enumerates every document id. Each shard is paged through fully
// (shards scan concurrently), then the per-shard id streams — each already
// in ascending order — are k-way merged, so sharded and single-node
// deployments return the identical sorted enumeration.
func (e *Engine) allIDs(ctx context.Context, schema string) ([]string, error) {
	perShard := make([][]string, e.shards.N())
	err := e.shards.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
		var ids []string
		after := ""
		for {
			var reply cloud.DocScanReply
			if err := conn.Call(gctx, cloud.DocService, "scan",
				cloud.DocScanArgs{Collection: schema, After: after, Limit: 1024}, &reply); err != nil {
				return err
			}
			if len(reply.Records) == 0 {
				perShard[shard] = ids
				return nil
			}
			for _, r := range reply.Records {
				ids = append(ids, r.ID)
			}
			after = reply.Records[len(reply.Records)-1].ID
		}
	})
	if err != nil {
		return nil, err
	}
	return ring.Merge(perShard, strings.Compare), nil
}

// Aggregate computes an aggregate of field over the documents matching
// where (nil = all documents). Sum and average run homomorphically
// cloud-side through the field's aggregate tactic; count is the matching
// set's cardinality; min and max fall back to gateway-side computation
// over fetched documents.
func (e *Engine) Aggregate(ctx context.Context, schema, field string, agg model.Agg, where Predicate) (float64, error) {
	rt, err := e.runtime(schema)
	if err != nil {
		return 0, err
	}
	f, ok := rt.schema.Field(field)
	if !ok {
		return 0, fmt.Errorf("%w: unknown field %q", ErrUnsupportedQuery, field)
	}
	ids, err := e.SearchIDs(ctx, schema, where)
	if err != nil {
		return 0, err
	}
	switch agg {
	case model.AggCount:
		return float64(len(ids)), nil
	case model.AggSum, model.AggAvg:
		plan, ok := rt.plans[field]
		if !ok {
			return 0, fmt.Errorf("%w: field %q has no aggregate plan", ErrUnsupportedQuery, field)
		}
		name, ok := plan.ByAgg[agg]
		if !ok {
			return 0, fmt.Errorf("%w: field %q does not support %s", ErrUnsupportedQuery, field, string(agg))
		}
		ag, ok := rt.instances[name].(spi.Aggregator)
		if !ok {
			return 0, fmt.Errorf("%w: tactic %s cannot aggregate", ErrUnsupportedQuery, name)
		}
		return ag.Aggregate(ctx, field, agg, ids)
	case model.AggMin, model.AggMax:
		return e.minMax(ctx, schema, f, agg, ids)
	default:
		return 0, fmt.Errorf("%w: unknown aggregate %q", ErrUnsupportedQuery, string(agg))
	}
}

// minMax is the retrieval-based fallback: fetch, decrypt, compare.
func (e *Engine) minMax(ctx context.Context, schema string, f model.Field, agg model.Agg, ids []string) (float64, error) {
	docs, err := e.Fetch(ctx, schema, ids)
	if err != nil {
		return 0, err
	}
	found := false
	var best float64
	for _, doc := range docs {
		v, present := doc.Fields[f.Name]
		if !present {
			continue
		}
		_, fv, err := model.NormalizeNumeric(v, f.Type)
		if err != nil {
			return 0, err
		}
		if !found {
			best = fv
			found = true
			continue
		}
		if (agg == model.AggMin && fv < best) || (agg == model.AggMax && fv > best) {
			best = fv
		}
	}
	if !found {
		return 0, fmt.Errorf("core: no values of %q to aggregate", f.Name)
	}
	return best, nil
}
