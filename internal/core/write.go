// The write path: every mutating request builds one write set — each
// tactic's prepare appends its cloud mutations — and the engine ships it as
// one batch per owning shard (spi.WriteSet.Flush). This file is the
// engine's bookkeeping around that set: which tactic produced which
// mutations (error labels, the planner's cost model), the migration
// dual-write, and what runs once the set has landed.

package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"datablinder/internal/model"
	"datablinder/internal/spi"
)

// tacticFields is one tactic of a schema's plan with the fields it indexes.
type tacticFields struct {
	name   string
	fields []string // sorted
}

// indexOrder lists the runtime's tactics by name, each with its fields
// sorted: the order prepares run in, and so the order of a write set's
// mutations. Runtimes are immutable once published, so it is built once.
func (rt *schemaRuntime) indexOrder() []tacticFields {
	rt.orderOnce.Do(func() {
		byTactic := make(map[string][]string)
		for field, plan := range rt.plans {
			for _, name := range plan.Tactics {
				byTactic[name] = append(byTactic[name], field)
			}
		}
		for name, fields := range byTactic {
			sort.Strings(fields)
			rt.order = append(rt.order, tacticFields{name: name, fields: fields})
		}
		sort.Slice(rt.order, func(i, j int) bool { return rt.order[i].name < rt.order[j].name })
	})
	return rt.order
}

// write is one request's write set plus what the engine knows about it.
type write struct {
	e      *Engine
	schema string
	set    spi.WriteSet
	parts  []part
	// landed, if set, runs after the set flushed successfully (the
	// migration's done-marker).
	landed func() error
}

// part is one tactic's contribution to a write set.
type part struct {
	tactic   string
	op       model.Op
	fields   []string
	from, to int // its mutations are set.Mutations[from:to]
	prep     time.Duration
}

func opVerb(op model.Op) string {
	if op == model.OpDelete {
		return "delete"
	}
	return "insert"
}

// prepare runs one tactic's write half for the given fields of a document,
// timing it for the cost model.
func (w *write) prepare(name string, inst spi.Tactic, op model.Op, docID string, fields []string, values map[string]any) error {
	if len(fields) == 0 {
		return nil
	}
	start := time.Now()
	from := len(w.set.Mutations)
	if err := inst.Prepare(&w.set, op, docID, fields, values); err != nil {
		return fmt.Errorf("core: %s index %s: %w", name, opVerb(op), err)
	}
	w.parts = append(w.parts, part{
		tactic: name, op: op, fields: fields,
		from: from, to: len(w.set.Mutations), prep: time.Since(start),
	})
	return nil
}

// index prepares one document's index maintenance across the schema's
// plan: every tactic, with those of its fields the document carries.
func (w *write) index(rt *schemaRuntime, doc *model.Document, op model.Op) error {
	for _, t := range rt.indexOrder() {
		fields := make([]string, 0, len(t.fields))
		for _, f := range t.fields {
			if _, ok := doc.Fields[f]; ok {
				fields = append(fields, f)
			}
		}
		if err := w.prepare(t.name, rt.instances[t.name], op, doc.ID, fields, doc.Fields); err != nil {
			return err
		}
	}
	return nil
}

// target prepares a document's migrating field for every tactic of an
// in-flight migration's target plan that the running plan lacks.
func (w *write) target(m *migration, doc *model.Document, op model.Op) error {
	for _, name := range m.tactics {
		if err := w.prepare(name, m.instances[name], op, doc.ID, []string{m.field}, doc.Fields); err != nil {
			return err
		}
	}
	return nil
}

// mirror adds the dual-write mirroring one document mutation into an
// in-flight migration's target indexes. The caller holds the document's
// lock, as a backfill scan batch does for its ids, so the two never
// interleave. A delete applies only when the id is claimed: the target
// index holds nothing to delete otherwise, and a counted-cell tactic would
// go negative. An insert always applies, since it carries the newest value,
// and claims the id once it has landed, so the scan leaves it alone.
func (w *write) mirror(rt *schemaRuntime, doc *model.Document, op model.Op) error {
	m := rt.mig
	if m == nil {
		return nil
	}
	if _, ok := doc.Fields[m.field]; !ok {
		return nil
	}
	if op == model.OpDelete {
		if _, claimed := m.claims.Load(doc.ID); !claimed {
			return nil
		}
		return w.target(m, doc, op)
	}
	if err := w.target(m, doc, op); err != nil {
		return err
	}
	w.landed = func() error {
		m.claims.Store(doc.ID, struct{}{})
		return w.e.local.HSet(m.marker, []byte(doc.ID), []byte{1})
	}
	return nil
}

// flush ships the write set — one batch per owning shard — and, once it has
// landed, bills every tactic its prepare time plus the wall time of the
// flush that carried its mutations. A failure comes back naming the tactic
// and field of the first failed mutation; every failure hook has run by
// then (spi.WriteSet.Flush).
func (w *write) flush(ctx context.Context) error {
	start := time.Now()
	failed, err := w.set.Flush(ctx, w.e.shards, w.e.workers.Go)
	if err != nil {
		for _, p := range w.parts {
			if failed < p.from || failed >= p.to {
				continue
			}
			if f := w.set.Mutations[failed].Field; f != "" {
				return fmt.Errorf("core: %s index %s field %s: %w", p.tactic, opVerb(p.op), f, err)
			}
			return fmt.Errorf("core: %s index %s: %w", p.tactic, opVerb(p.op), err)
		}
		return err
	}
	wall := time.Since(start)
	for _, p := range w.parts {
		d := p.prep
		if p.to > p.from {
			d += wall
		}
		w.e.stats.Record(w.schema, p.fields, p.tactic, p.op, d)
	}
	if w.landed != nil {
		return w.landed()
	}
	return nil
}
