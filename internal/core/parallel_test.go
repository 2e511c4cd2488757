package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/coalesce"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// wrapEnv builds a registered engine whose cloud conn is wrapped by wrap
// (nil for a plain loopback), with coalescing off: the fan-out tests
// assert the engine's own RPC fan-out at the wrapped conn, and group
// commit can legitimately merge sub-calls that reach a shard during a
// flush into one batch, which would measure the batcher, not the engine.
func wrapEnv(t testing.TB, wrap func(transport.Conn) transport.Conn) *testEnv {
	return wrapEnvWith(t, wrap, coalesce.Options{Disabled: true})
}

// wrapEnvWith is wrapEnv with the engine's coalescing configured by co.
func wrapEnvWith(t testing.TB, wrap func(transport.Conn) transport.Conn, co coalesce.Options) *testEnv {
	t.Helper()
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		t.Fatalf("cloud.NewNode: %v", err)
	}
	t.Cleanup(func() { node.Close() })
	ks, err := keys.NewRandomStore()
	if err != nil {
		t.Fatalf("keys: %v", err)
	}
	reg, err := tactics.Registry()
	if err != nil {
		t.Fatalf("tactics.Registry: %v", err)
	}
	var conn transport.Conn = transport.NewLoopback(node.Mux)
	if wrap != nil {
		conn = wrap(conn)
	}
	local := kvstore.New()
	engine, err := NewEngine(Config{
		Keys: ks, Cloud: conn, Local: local, Registry: reg, Coalesce: co,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if err := engine.RegisterSchema(context.Background(), observationSchema()); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	return &testEnv{engine: engine, node: node, local: local, keys: ks}
}

// peakConn tracks the peak number of concurrently in-flight Calls. A small
// sleep per call guarantees genuinely concurrent callers overlap.
type peakConn struct {
	inner     transport.Conn
	enabled   atomic.Bool
	cur, peak atomic.Int64
}

func (p *peakConn) Call(ctx context.Context, service, method string, args, reply any) error {
	if !p.enabled.Load() {
		return p.inner.Call(ctx, service, method, args, reply)
	}
	c := p.cur.Add(1)
	for {
		pk := p.peak.Load()
		if c <= pk || p.peak.CompareAndSwap(pk, c) {
			break
		}
	}
	time.Sleep(20 * time.Millisecond)
	err := p.inner.Call(ctx, service, method, args, reply)
	p.cur.Add(-1)
	return err
}

func (p *peakConn) Close() error { return p.inner.Close() }

// mixedOr is a disjunction over fields served by three different tactics
// (Mitra, Mitra/DET, OPE); the Range leaf defeats the single-frame boolean
// compilation, forcing the recursive evaluator that fans out per leaf.
func mixedOr() Predicate {
	return Or{Preds: []Predicate{
		Eq{Field: "status", Value: "final"},
		Eq{Field: "subject", Value: "john-doe"},
		Between("effective", int64(1361000000), int64(1363000000)),
	}}
}

func sortedSearchIDs(t *testing.T, env *testEnv, p Predicate) []string {
	t.Helper()
	ids, err := env.engine.SearchIDs(context.Background(), "observation", p)
	if err != nil {
		t.Fatalf("SearchIDs: %v", err)
	}
	sort.Strings(ids)
	return ids
}

// plainMatch evaluates p over one plaintext document: the reference the
// engine's encrypted evaluation must agree with. Range bounds are int64,
// as every range in these tests is over an int field.
func plainMatch(p Predicate, d *model.Document) bool {
	switch q := p.(type) {
	case Eq:
		return d.Fields[q.Field] == q.Value
	case Range:
		v, ok := d.Fields[q.Field].(int64)
		if !ok {
			return false
		}
		if lo, ok := q.Lo.(int64); ok && (v < lo || v == lo && !q.LoInc) {
			return false
		}
		if hi, ok := q.Hi.(int64); ok && (v > hi || v == hi && !q.HiInc) {
			return false
		}
		return true
	case Not:
		return !plainMatch(q.Pred, d)
	case And:
		for _, c := range q.Preds {
			if !plainMatch(c, d) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range q.Preds {
			if plainMatch(c, d) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("unexpected predicate %T", p))
}

// plainIDs returns the sorted ids of the documents p matches in plaintext.
func plainIDs(docs []*model.Document, p Predicate) []string {
	var ids []string
	for _, d := range docs {
		if plainMatch(p, d) {
			ids = append(ids, d.ID)
		}
	}
	sort.Strings(ids)
	return ids
}

// TestParallelSearchMatchesPlaintext runs mixed-tactic boolean and range
// queries through the engine's concurrent evaluator and requires the id
// sets the same predicates select from seed's plaintext documents.
func TestParallelSearchMatchesPlaintext(t *testing.T) {
	for _, coalesced := range []bool{true, false} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesced), func(t *testing.T) {
			testParallelSearchMatchesPlaintext(t, wrapEnvWith(t, nil, coalesce.Options{Disabled: !coalesced}))
		})
	}
}

func testParallelSearchMatchesPlaintext(t *testing.T, env *testEnv) {
	seed(t, env)
	docs := seedDocs()

	queries := []Predicate{
		mixedOr(),
		And{Preds: []Predicate{
			Eq{Field: "code", Value: "glucose"},
			Eq{Field: "subject", Value: "john-doe"},
			Not{Pred: Eq{Field: "status", Value: "draft"}},
		}},
		Or{Preds: []Predicate{
			And{Preds: []Predicate{
				Eq{Field: "status", Value: "final"},
				Between("effective", int64(1360000000), int64(1365000000)),
			}},
			Eq{Field: "code", Value: "heart-rate"},
		}},
		And{Preds: []Predicate{
			Gte("effective", int64(1361000000)),
			Not{Pred: Eq{Field: "subject", Value: "jane-roe"}},
		}},
	}
	for i, q := range queries {
		got := sortedSearchIDs(t, env, q)
		want := plainIDs(docs, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: engine=%v plaintext=%v", i, got, want)
		}
		if len(want) == 0 {
			t.Errorf("query %d matched nothing — not exercising the evaluator", i)
		}
	}

	// The full-document search path (Fetch fan-out) must decrypt the
	// matching documents themselves.
	got, err := env.engine.Search(context.Background(), "observation", mixedOr())
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	want := map[string]float64{}
	for _, d := range docs {
		if plainMatch(mixedOr(), d) {
			want[d.ID] = d.Fields["value"].(float64)
		}
	}
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("Search returned %d documents, plaintext selects %d", len(got), len(want))
	}
	for _, d := range got {
		if v, ok := want[d.ID]; !ok || v != d.Fields["value"].(float64) {
			t.Fatalf("document %s differs from its plaintext", d.ID)
		}
	}
}

// TestSearchFanOutOverlaps proves the engine issues leaf RPCs concurrently.
func TestSearchFanOutOverlaps(t *testing.T) {
	var pc *peakConn
	env := wrapEnv(t, func(c transport.Conn) transport.Conn {
		pc = &peakConn{inner: c}
		return pc
	})
	seed(t, env)

	pc.enabled.Store(true)
	if _, err := env.engine.SearchIDs(context.Background(), "observation", mixedOr()); err != nil {
		t.Fatal(err)
	}
	pc.enabled.Store(false)
	if got := pc.peak.Load(); got < 2 {
		t.Fatalf("peak in-flight RPCs = %d, want >= 2", got)
	}
}

// failServiceConn fails every call to one service once armed, and every
// batch frame carrying a sub-call to it.
type failServiceConn struct {
	inner   transport.Conn
	service string
	armed   atomic.Bool
	failed  atomic.Int64
}

var errInjected = errors.New("injected index failure")

func (f *failServiceConn) Call(ctx context.Context, service, method string, args, reply any) error {
	hit := service == f.service
	if calls, ok := args.([]transport.BatchCall); ok && service == transport.BatchService {
		for _, c := range calls {
			hit = hit || c.Service == f.service
		}
	}
	if f.armed.Load() && hit {
		f.failed.Add(1)
		return fmt.Errorf("%s.%s: %w", service, method, errInjected)
	}
	return f.inner.Call(ctx, service, method, args, reply)
}

func (f *failServiceConn) Close() error { return f.inner.Close() }

// TestInsertCompensatesFailedIndexing: when index writes fail after the
// document blob reached the cloud, Insert must remove the blob again and
// surface the original indexing error. The subtest keeps the name it had
// when the engine still had a serial insert arm; the fan-out path it
// covers is the only one left.
func TestInsertCompensatesFailedIndexing(t *testing.T) {
	t.Run("sequential=false", testInsertCompensatesFailedIndexing)
}

func testInsertCompensatesFailedIndexing(t *testing.T) {
	var fc *failServiceConn
	env := wrapEnv(t, func(c transport.Conn) transport.Conn {
		// "ope" indexes the effective/issued fields; doc puts and the
		// compensating delete travel on the "doc" service and pass through.
		fc = &failServiceConn{inner: c, service: "ope"}
		return fc
	})
	fc.armed.Store(true)
	_, err := env.engine.Insert(context.Background(), "observation",
		obs("c1", "final", "glucose", "john-doe", 1359966610, "john-smith", 6.3))
	fc.armed.Store(false)
	if !errors.Is(err, errInjected) {
		t.Fatalf("Insert = %v, want the injected indexing error", err)
	}
	if fc.failed.Load() == 0 {
		t.Fatal("fault injector never fired")
	}
	// The compensating delete must have removed the orphaned blob.
	if _, err := env.engine.Get(context.Background(), "observation", "c1"); !errors.Is(err, ErrDocumentMissing) {
		t.Fatalf("Get after failed insert = %v, want ErrDocumentMissing", err)
	}
	// The id is reusable once the injector is disarmed.
	if _, err := env.engine.Insert(context.Background(), "observation",
		obs("c1", "final", "glucose", "john-doe", 1359966610, "john-smith", 6.3)); err != nil {
		t.Fatalf("re-insert after compensation: %v", err)
	}
}

// TestParallelUpdateDeleteMatchesPlaintext exercises the fan-out paths of
// Update and Delete, applies the same mutations to seed's plaintext
// documents, and requires the same search result from both.
func TestParallelUpdateDeleteMatchesPlaintext(t *testing.T) {
	for _, coalesced := range []bool{true, false} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesced), func(t *testing.T) {
			testParallelUpdateDeleteMatchesPlaintext(t, wrapEnvWith(t, nil, coalesce.Options{Disabled: !coalesced}))
		})
	}
}

func testParallelUpdateDeleteMatchesPlaintext(t *testing.T, env *testEnv) {
	seed(t, env)

	upd := obs("f001", "amended", "glucose", "john-doe", 1359966610, "john-smith", 9.9)
	if err := env.engine.Update(context.Background(), "observation", upd); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := env.engine.Delete(context.Background(), "observation", "f002"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	var docs []*model.Document
	for _, d := range seedDocs() {
		switch d.ID {
		case upd.ID:
			docs = append(docs, upd)
		case "f002":
		default:
			docs = append(docs, d)
		}
	}

	q := Or{Preds: []Predicate{
		Eq{Field: "status", Value: "amended"},
		Eq{Field: "subject", Value: "jane-roe"},
	}}
	got := sortedSearchIDs(t, env, q)
	want := plainIDs(docs, q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-mutation search: engine=%v plaintext=%v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("post-mutation search matched nothing")
	}
}

// TestConcurrentEngineUse hammers one parallel engine from many goroutines
// mixing inserts and searches (run with -race).
func TestConcurrentEngineUse(t *testing.T) {
	env := wrapEnv(t, nil)
	seed(t, env)

	done := make(chan error, 12)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 5; i++ {
				id := fmt.Sprintf("w%d-%d", g, i)
				if _, err := env.engine.Insert(context.Background(), "observation",
					obs(id, "final", "glucose", "john-doe", int64(1370000000+g*100+i), "john-smith", 1.0)); err != nil {
					done <- fmt.Errorf("insert %s: %w", id, err)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 5; i++ {
				if _, err := env.engine.SearchIDs(context.Background(), "observation", mixedOr()); err != nil {
					done <- fmt.Errorf("search: %w", err)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 12; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	ids, err := env.engine.SearchIDs(context.Background(), "observation", Eq{Field: "code", Value: "glucose"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 23 { // 3 seeded glucose docs + 20 inserted
		t.Fatalf("glucose docs = %d, want 23", len(ids))
	}
}
