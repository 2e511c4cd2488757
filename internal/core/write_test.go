package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/coalesce"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/planner"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// paperSchema is the benchmark's §5.2 schema: eight tactic pins, five of
// them DET.
func paperSchema() *model.Schema {
	field := func(name string, ft model.FieldType, ann string) model.Field {
		a, err := model.ParseAnnotation(ann)
		if err != nil {
			panic(err)
		}
		return model.Field{Name: name, Type: ft, Sensitive: true, Annotation: a}
	}
	return &model.Schema{Name: "observation", Fields: []model.Field{
		{Name: "identifier", Type: model.TypeString},
		field("status", model.TypeString, "C4, op [I, EQ], tactic [DET]"),
		field("code", model.TypeString, "C4, op [I, EQ], tactic [DET]"),
		field("subject", model.TypeString, "C2, op [I, EQ], tactic [Mitra]"),
		field("effective", model.TypeInt, "C4, op [I, EQ], tactic [DET]"),
		field("issued", model.TypeInt, "C4, op [I, EQ], tactic [DET]"),
		field("performer", model.TypeString, "C1, op [I], tactic [RND]"),
		field("value", model.TypeFloat, "C4, op [I, EQ], agg [avg, sum], tactic [DET, Paillier]"),
	}}
}

func paperObs(id string, i int) *model.Document {
	return &model.Document{ID: id, Fields: map[string]any{
		"status": "final", "code": fmt.Sprintf("code-%d", i%7), "subject": fmt.Sprintf("patient-%d", i%5),
		"effective": int64(1359966610 + i), "issued": int64(1359970000 + i),
		"performer": "john-smith", "value": 5.5 + float64(i),
	}}
}

// frame is one request frame a shard connection carried.
type frame struct {
	shard      int
	subs       []string // service.method of each sub-call
	start, end time.Time
}

// tap sits below the engine's coalescer, one tapConn per shard: every Call
// it sees is one request frame on that shard's socket. It records the
// frames and the sub-calls they carry and can delay or fail them.
type tap struct {
	mu     sync.Mutex
	frames []frame
	// delay holds every frame this long, so frames sent together overlap
	// and the union of their intervals counts round-trip waves.
	delay time.Duration
	// failSub fails one sub-call with the returned error (the handler never
	// runs); failFrame fails a whole frame before it is sent.
	failSub   func(shard int, call transport.BatchCall) error
	failFrame func(shard int, subs []transport.BatchCall) error
}

type tapConn struct {
	inner transport.Conn
	tap   *tap
	shard int
}

func (c *tapConn) Close() error { return c.inner.Close() }

func (c *tapConn) Call(ctx context.Context, service, method string, args, reply any) error {
	calls, batch := args.([]transport.BatchCall)
	if !batch || service != transport.BatchService {
		calls = []transport.BatchCall{{Service: service, Method: method, Args: args}}
	}
	f := frame{shard: c.shard, start: time.Now()}
	for _, call := range calls {
		f.subs = append(f.subs, call.Service+"."+call.Method)
	}
	c.tap.mu.Lock()
	delay, failSub, failFrame := c.tap.delay, c.tap.failSub, c.tap.failFrame
	c.tap.mu.Unlock()
	defer func() {
		f.end = time.Now()
		c.tap.mu.Lock()
		c.tap.frames = append(c.tap.frames, f)
		c.tap.mu.Unlock()
	}()
	time.Sleep(delay)
	if failFrame != nil {
		if err := failFrame(c.shard, calls); err != nil {
			return err
		}
	}
	if failSub == nil {
		return c.inner.Call(ctx, service, method, args, reply)
	}
	if !batch {
		if err := failSub(c.shard, calls[0]); err != nil {
			return err
		}
		return c.inner.Call(ctx, service, method, args, reply)
	}
	// Run the sub-calls that are not failed and splice the failures in.
	out := make([]transport.BatchResult, len(calls))
	var pass []transport.BatchCall
	var at []int
	for i, call := range calls {
		if err := failSub(c.shard, call); err != nil {
			out[i] = transport.BatchResult{Err: err}
			continue
		}
		pass, at = append(pass, call), append(at, i)
	}
	if len(pass) > 0 {
		var got []transport.BatchResult
		if err := c.inner.Call(ctx, service, method, pass, &got); err != nil {
			return err
		}
		for j, i := range at {
			out[i] = got[j]
		}
	}
	*reply.(*[]transport.BatchResult) = out
	return nil
}

func (t *tap) reset() {
	t.mu.Lock()
	t.frames = nil
	t.mu.Unlock()
}

func (t *tap) taken() []frame {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]frame(nil), t.frames...)
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// subCalls counts the sub-calls of frames by name.
func subCalls(frames []frame) map[string]int {
	out := map[string]int{}
	for _, f := range frames {
		for _, s := range f.subs {
			out[s]++
		}
	}
	return out
}

// waves groups frames (sorted by start) into round-trip waves: maximal sets
// whose intervals overlap.
func waves(frames []frame) [][]frame {
	var out [][]frame
	var end time.Time
	for _, f := range frames {
		if len(out) == 0 || f.start.After(end) {
			out = append(out, nil)
			end = f.end
		} else if f.end.After(end) {
			end = f.end
		}
		out[len(out)-1] = append(out[len(out)-1], f)
	}
	return out
}

// tappedEngine builds an engine over n loopback cloud nodes with a tap
// under the coalescer (or directly under the engine with coalescing off).
func tappedEngine(t testing.TB, n int, schema *model.Schema, cfg Config) (*Engine, *tap) {
	t.Helper()
	tp := &tap{}
	conns := make([]transport.Conn, n)
	for i := range conns {
		node, err := cloud.NewNode(cloud.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		conns[i] = &tapConn{inner: transport.NewLoopback(node.Mux), tap: tp, shard: i}
	}
	ks, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Keys, cfg.Local, cfg.Registry = ks, kvstore.New(), reg
	cfg.Cloud = conns[0]
	if n > 1 {
		cfg.Cloud = ring.NewClient(conns, 0)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if err := e.RegisterSchema(context.Background(), schema); err != nil {
		t.Fatal(err)
	}
	tp.reset()
	return e, tp
}

// TestInsertFramesPerShard: an insert ships one batch per shard it touches
// — after a reservation frame of its own when the caller chose the id, in
// the same wave as the blob when the gateway generated it — and the
// sub-calls it makes are what they were before the write set.
func TestInsertFramesPerShard(t *testing.T) {
	want := map[string]int{"det.add": 5, "mitra.insert": 1, "rnd.put": 1, "agg.put": 1, "doc.put": 1}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shard", n), func(t *testing.T) {
			e, tp := tappedEngine(t, n, paperSchema(), Config{})
			tp.delay = 20 * time.Millisecond
			ctx := context.Background()
			widest := 0
			for i := 0; i < 6; i++ {
				generated := i%2 == 1
				doc := paperObs(fmt.Sprintf("obs-%d", i), i)
				if generated {
					doc.ID = ""
				}
				tp.reset()
				if _, err := e.Insert(ctx, "observation", doc); err != nil {
					t.Fatal(err)
				}
				frames := tp.taken()
				if got := subCalls(frames); !reflect.DeepEqual(got, want) {
					t.Fatalf("sub-calls = %v, want %v", got, want)
				}
				ws := waves(frames)
				flush := ws[len(ws)-1]
				if generated {
					if len(ws) != 1 {
						t.Fatalf("generated id: %d waves, want 1: %+v", len(ws), frames)
					}
				} else {
					if len(ws[0]) != 1 || !reflect.DeepEqual(ws[0][0].subs, []string{"doc.put"}) {
						t.Fatalf("caller id: first wave = %+v, want the doc.put reservation alone", ws[0])
					}
					if len(ws) != 2 {
						t.Fatalf("caller id: %d waves, want 2: %+v", len(ws), frames)
					}
					frames = frames[1:]
				}
				// One frame per shard touched, all in one wave.
				shards := map[int]int{}
				for _, f := range frames {
					shards[f.shard]++
				}
				for s, k := range shards {
					if k != 1 {
						t.Fatalf("shard %d carried %d frames of one flush, want 1: %+v", s, k, frames)
					}
				}
				if len(flush) != len(shards) {
					t.Fatalf("flush wave has %d frames for %d shards: %+v", len(flush), len(shards), frames)
				}
				if len(shards) > widest {
					widest = len(shards)
				}
			}
			if n == 3 && widest < 2 {
				t.Fatalf("no insert touched more than %d of 3 shards", widest)
			}
		})
	}
}

// sophosSchema is the §5.1 schema with subject moved onto Sophos, so a
// write exercises both tactics that keep a per-document version.
func sophosSchema() *model.Schema {
	s := observationSchema()
	for i := range s.Fields {
		if s.Fields[i].Name == "subject" {
			a, err := model.ParseAnnotation("C2, op [I, EQ], tactic [Sophos]")
			if err != nil {
				panic(err)
			}
			s.Fields[i].Annotation = a
		}
	}
	return s
}

// TestDuplicateInsertSendsNoIndexWrite: an insert under a taken id has
// prepared every tactic by the time the reservation is refused; nothing of
// that may reach the cloud or disturb the existing document's indexes.
func TestDuplicateInsertSendsNoIndexWrite(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shard", n), func(t *testing.T) {
			e, tp := tappedEngine(t, n, sophosSchema(), Config{})
			ctx := context.Background()
			for _, d := range []*model.Document{
				obs("f001", "final", "glucose", "john-doe", 1359966610, "john-smith", 6.5),
				obs("f002", "final", "insulin", "jane-roe", 1360966610, "mary-major", 3.5),
			} {
				if _, err := e.Insert(ctx, "observation", d); err != nil {
					t.Fatal(err)
				}
			}
			state := func() (byStatus, bySubject []string, avg float64) {
				t.Helper()
				byStatus, err := e.SearchIDs(ctx, "observation", Eq{Field: "status", Value: "final"})
				if err != nil {
					t.Fatal(err)
				}
				bySubject, err = e.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: "john-doe"})
				if err != nil {
					t.Fatal(err)
				}
				avg, err = e.Aggregate(ctx, "observation", "value", model.AggAvg, nil)
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(byStatus)
				return byStatus, bySubject, avg
			}
			s0, j0, a0 := state()
			if !reflect.DeepEqual(s0, []string{"f001", "f002"}) || !reflect.DeepEqual(j0, []string{"f001"}) || a0 != 5 {
				t.Fatalf("before: status=%v subject=%v avg=%v", s0, j0, a0)
			}

			tp.reset()
			_, err := e.Insert(ctx, "observation", obs("f001", "draft", "heart-rate", "someone-else", 1, "nobody", 100))
			if !errors.Is(err, ErrDocumentExists) {
				t.Fatalf("duplicate insert = %v, want ErrDocumentExists", err)
			}
			if got := subCalls(tp.taken()); !reflect.DeepEqual(got, map[string]int{"doc.put": 1}) {
				t.Fatalf("duplicate insert sent %v, want the refused doc.put alone", got)
			}
			s1, j1, a1 := state()
			if !reflect.DeepEqual(s1, s0) || !reflect.DeepEqual(j1, j0) || a1 != a0 {
				t.Fatalf("after: status=%v subject=%v avg=%v, want %v %v %v", s1, j1, a1, s0, j0, a0)
			}
			got, err := e.Get(ctx, "observation", "f001")
			if err != nil || got.Fields["status"] != "final" {
				t.Fatalf("existing document = %v, %v", got, err)
			}
		})
	}
}

// indexCall reports whether a sub-call is a tactic index write (anything
// but the document store).
func indexCall(c transport.BatchCall) bool { return c.Service != cloud.DocService }

var labelled = regexp.MustCompile(`^core: \S+ index insert( field \S+)?: `)

// TestWriteSetFailureMapping: whichever way a write set fails — one
// sub-call, a shard's whole batch, the caller giving up mid-flush — the
// error names the tactic (and field) of the first failed mutation of the
// lowest failing shard, the blob is gone, BIEX's cells are superseded, and
// nothing is left running.
func TestWriteSetFailureMapping(t *testing.T) {
	type fault struct {
		name string
		// arm installs the fault and returns the context to insert under and
		// the error text Insert must start with ("" = any labelled text).
		arm func(tp *tap, ctx context.Context) (context.Context, string)
		is  error
	}
	faults := []fault{
		{"sub-call", func(tp *tap, ctx context.Context) (context.Context, string) {
			tp.failSub = func(_ int, c transport.BatchCall) error {
				if c.Service == "ope" && c.Method == "add" && strings.Contains(fmt.Sprint(c.Args), "effective") {
					return errInjected
				}
				return nil
			}
			return ctx, "core: OPE index insert field effective: "
		}, errInjected},
		{"shard batch", func(tp *tap, ctx context.Context) (context.Context, string) {
			// Every shard's index batch fails: the report must be the lowest
			// shard's, its first mutation.
			tp.failFrame = func(shard int, subs []transport.BatchCall) error {
				for _, c := range subs {
					if indexCall(c) {
						return fmt.Errorf("shard %d: %w", shard, errInjected)
					}
				}
				return nil
			}
			return ctx, ""
		}, errInjected},
		{"cancelled", func(tp *tap, ctx context.Context) (context.Context, string) {
			ctx, cancel := context.WithCancel(ctx)
			tp.failFrame = func(_ int, subs []transport.BatchCall) error {
				for _, c := range subs {
					if indexCall(c) {
						cancel() // the caller gives up while the flush is in flight
						return context.Canceled
					}
				}
				return nil
			}
			return ctx, ""
		}, context.Canceled},
	}
	for _, n := range []int{1, 3} {
		for _, f := range faults {
			for _, coalesced := range []bool{true, false} {
				t.Run(fmt.Sprintf("%d-shard/%s/coalesce=%v", n, f.name, coalesced), func(t *testing.T) {
					e, tp := tappedEngine(t, n, observationSchema(), Config{Coalesce: coalesce.Options{Disabled: !coalesced}})
					ctx := context.Background()
					// Three inserts also park as many write workers as one insert uses.
					for i, status := range []string{"final", "draft", "draft"} {
						if _, err := e.Insert(ctx, "observation", obs([]string{"keep", "warm-1", "warm-2"}[i], status, "glucose", "john-doe", 1359966610, "john-smith", 6.3)); err != nil {
							t.Fatal(err)
						}
					}
					before := runtime.NumGoroutine()

					tp.reset()
					ictx, prefix := f.arm(tp, ctx)
					_, err := e.Insert(ictx, "observation", obs("doomed", "final", "glucose", "john-doe", 1360966610, "john-smith", 7.1))
					tp.mu.Lock()
					tp.failSub, tp.failFrame = nil, nil
					tp.mu.Unlock()

					if !errors.Is(err, f.is) {
						t.Fatalf("Insert = %v, want %v", err, f.is)
					}
					if !labelled.MatchString(err.Error()) || !strings.HasPrefix(err.Error(), prefix) {
						t.Fatalf("Insert = %q, want it to name tactic and field (prefix %q)", err, prefix)
					}
					if f.name == "shard batch" {
						lowest := -1
						for _, fr := range tp.taken() {
							if len(fr.subs) > 0 && fr.subs[0] != "doc.put" && fr.subs[0] != "doc.delete" && (lowest < 0 || fr.shard < lowest) {
								lowest = fr.shard
							}
						}
						if want := fmt.Sprintf("shard %d: ", lowest); !strings.Contains(err.Error(), want) {
							t.Fatalf("Insert = %q, want the lowest failing shard's error (%q)", err, want)
						}
					}
					if _, err := e.Get(ctx, "observation", "doomed"); !errors.Is(err, ErrDocumentMissing) {
						t.Fatalf("Get after failed insert = %v, want ErrDocumentMissing", err)
					}
					// BIEX serves status: whatever cells landed must not resolve.
					ids, err := e.SearchIDs(ctx, "observation", Eq{Field: "status", Value: "final"})
					if err != nil || !reflect.DeepEqual(ids, []string{"keep"}) {
						t.Fatalf("status=final after failed insert = %v, %v; want [keep]", ids, err)
					}
					deadline := time.Now().Add(2 * time.Second)
					for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
						time.Sleep(5 * time.Millisecond)
					}
					if now := runtime.NumGoroutine(); now > before {
						t.Fatalf("%d goroutines before the failed insert, %d after", before, now)
					}
					// The id is free again.
					if _, err := e.Insert(ctx, "observation", obs("doomed", "final", "glucose", "john-doe", 1360966610, "john-smith", 7.1)); err != nil {
						t.Fatalf("re-insert: %v", err)
					}
				})
			}
		}
	}
}

// TestTacticStatsAfterWriteSet: every tactic of both benchmark schemas
// still gets an insert and a delete sample per document and is billed the
// sub-calls it made, now that they travel in shared batches.
func TestTacticStatsAfterWriteSet(t *testing.T) {
	const docs = planner.MinSamples + 2
	schemas := map[string]struct {
		schema *model.Schema
		doc    func(string, int) *model.Document
		// rpcs is sub-calls per inserted-then-deleted document, by tactic
		// family; 0 means "some" (BIEX ships one per shard it touches, and
		// deletes locally).
		rpcs map[string]uint64
		ops  map[string][]model.Op
	}{
		"paper": {paperSchema(), paperObs,
			map[string]uint64{"DET": 10, "Mitra": 2, "RND": 2, "Paillier": 2},
			map[string][]model.Op{"DET": {model.OpInsert, model.OpDelete}, "Mitra": {model.OpInsert, model.OpDelete},
				"RND": {model.OpInsert, model.OpDelete}, "Paillier": {model.OpInsert, model.OpDelete}}},
		"rich": {observationSchema(), func(id string, i int) *model.Document {
			return obs(id, "final", fmt.Sprintf("code-%d", i%3), "john-doe", int64(1359966610+i), "john-smith", float64(i))
		},
			map[string]uint64{"BIEX": 0, "DET": 2, "OPE": 2, "Mitra": 2, "RND": 2, "Paillier": 2}, // obs sets no "issued"
			map[string][]model.Op{"BIEX-2Lev": {model.OpInsert, model.OpDelete}, "DET": {model.OpInsert, model.OpDelete},
				"OPE": {model.OpInsert, model.OpDelete}, "Mitra": {model.OpInsert, model.OpDelete},
				"RND": {model.OpInsert, model.OpDelete}, "Paillier": {model.OpInsert, model.OpDelete}}},
	}
	for name, tc := range schemas {
		t.Run(name, func(t *testing.T) {
			e, _ := tappedEngine(t, 3, tc.schema, Config{})
			ctx := context.Background()
			base := e.TacticStats() // registration broadcast the public keys
			for i := 0; i < docs; i++ {
				if _, err := e.Insert(ctx, "observation", tc.doc(fmt.Sprintf("d%02d", i), i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < docs; i++ {
				if err := e.Delete(ctx, "observation", fmt.Sprintf("d%02d", i)); err != nil {
					t.Fatal(err)
				}
			}
			snap := e.TacticStats()
			for tactic, ops := range tc.ops {
				for _, op := range ops {
					if got := snap.Tactics[tactic].Ops[string(op)].Count; got != docs {
						t.Errorf("%s %s samples = %d, want %d", tactic, op, got, docs)
					}
				}
			}
			for family, per := range tc.rpcs {
				got := snap.Tactics[family].RPCs - base.Tactics[family].RPCs
				if per == 0 && got < docs || per > 0 && got != per*docs {
					t.Errorf("%s RPCs = %d, want %d per document over %d documents", family, got, per, docs)
				}
			}
		})
	}
}

// BenchmarkEngineInsert is one caller inserting paper-schema observations
// under ids of its own into three loopback shards, coalescer on: the
// gateway's whole write path, no socket.
func BenchmarkEngineInsert(b *testing.B) {
	e, _ := tappedEngine(b, 3, paperSchema(), Config{})
	ctx := context.Background()
	// The first Paillier encryption builds the key's mask tables.
	if _, err := e.Insert(ctx, "observation", paperObs("warm-up", 0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Insert(ctx, "observation", paperObs(fmt.Sprintf("obs-%08d", i), i)); err != nil {
			b.Fatal(err)
		}
	}
}
