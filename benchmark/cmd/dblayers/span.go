package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"datablinder"
	"datablinder/benchmark/load"
	"datablinder/internal/core"
	"datablinder/internal/transport"
)

// Span layers. An "op" span is one application operation; an "upper" span is
// one engine call into a shard connection, before the coalescer; a "lower"
// span is one call the coalescer made on the socket.
const (
	layerOp    = "op"
	layerUpper = "upper"
	layerLower = "lower"
)

// span is one timed interval at a layer boundary. Upper spans carry the op
// span that caused them; the coalescer sends merged batches on
// context.Background(), so lower spans have no parent and are attributed by
// shard and time containment.
type span struct {
	Layer  string   `json:"layer"`
	ID     int64    `json:"id,omitempty"`     // op spans
	Parent int64    `json:"parent,omitempty"` // upper spans: the op's id
	Class  string   `json:"class,omitempty"`  // op spans
	Shard  int      `json:"shard"`
	Calls  []string `json:"calls,omitempty"` // service.method of each sub-call
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	on     atomic.Bool
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) since() int64 { return int64(time.Since(t.origin)) }

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type rootKey struct{}

// spanConn times every call through one shard connection. It forwards Call,
// CallBatch, WireCodec and Close untouched: a wrapper that hid WireCodec or
// CallBatch would silently demote the connection to the JSON codec.
type spanConn struct {
	under transport.Conn
	tr    *tracer
	layer string
	shard int
}

func (s *spanConn) WireCodec() transport.WireCodec { return transport.ConnCodec(s.under) }
func (s *spanConn) Close() error                   { return s.under.Close() }

func (s *spanConn) record(ctx context.Context, start int64, calls []string) {
	parent, _ := ctx.Value(rootKey{}).(int64)
	s.tr.add(span{Layer: s.layer, Parent: parent, Shard: s.shard, Calls: calls, Start: start, End: s.tr.since()})
}

func (s *spanConn) Call(ctx context.Context, service, method string, args, reply any) error {
	if !s.tr.on.Load() {
		return s.under.Call(ctx, service, method, args, reply)
	}
	start := s.tr.since()
	err := s.under.Call(ctx, service, method, args, reply)
	s.record(ctx, start, []string{service + "." + method})
	return err
}

func (s *spanConn) CallBatch(ctx context.Context, calls []transport.BatchCall) ([]transport.BatchResult, error) {
	if !s.tr.on.Load() {
		return transport.CallBatch(ctx, s.under, calls)
	}
	names := make([]string, len(calls))
	for i, c := range calls {
		names[i] = c.Service + "." + c.Method
	}
	start := s.tr.since()
	res, err := transport.CallBatch(ctx, s.under, calls)
	s.record(ctx, start, names)
	return res, err
}

// engineTarget drives an engine the harness assembled itself, opening an op
// span around every application operation.
type engineTarget struct {
	e  *core.Engine
	tr *tracer
}

func (t *engineTarget) op(ctx context.Context, class load.Class) (context.Context, func()) {
	if !t.tr.on.Load() {
		return ctx, func() {}
	}
	id := t.tr.nextID.Add(1)
	start := t.tr.since()
	return context.WithValue(ctx, rootKey{}, id), func() {
		t.tr.add(span{Layer: layerOp, ID: id, Class: class.String(), Start: start, End: t.tr.since()})
	}
}

func (t *engineTarget) Insert(ctx context.Context, doc *datablinder.Document) (string, error) {
	ctx, done := t.op(ctx, load.Insert)
	defer done()
	return t.e.Insert(ctx, load.SchemaName, doc)
}

func (t *engineTarget) Get(ctx context.Context, id string) (*datablinder.Document, error) {
	return t.e.Get(ctx, load.SchemaName, id)
}

func (t *engineTarget) Count(ctx context.Context) (int, error) {
	return t.e.Count(ctx, load.SchemaName)
}

func (t *engineTarget) Search(ctx context.Context, p datablinder.Predicate) ([]*datablinder.Document, error) {
	class := load.Search
	switch p.(type) {
	case datablinder.And, datablinder.Or:
		class = load.Boolean
	case datablinder.Range:
		class = load.Range
	}
	ctx, done := t.op(ctx, class)
	defer done()
	return t.e.Search(ctx, load.SchemaName, p)
}

func (t *engineTarget) Aggregate(ctx context.Context, field string, agg datablinder.Agg, where datablinder.Predicate) (float64, error) {
	ctx, done := t.op(ctx, load.Aggregate)
	defer done()
	return t.e.Aggregate(ctx, load.SchemaName, field, agg, where)
}
