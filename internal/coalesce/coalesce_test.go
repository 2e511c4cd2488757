package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablinder/internal/cloud"
	biextactic "datablinder/internal/tactics/biex"
	dettactic "datablinder/internal/tactics/det"
	mitratactic "datablinder/internal/tactics/mitra"
	opetactic "datablinder/internal/tactics/ope"
	oretactic "datablinder/internal/tactics/ore"
	aggtactic "datablinder/internal/tactics/paillier"
	rndtactic "datablinder/internal/tactics/rnd"
	sophostactic "datablinder/internal/tactics/sophos"
	"datablinder/internal/transport"
)

// countingConn records every frame reaching the underlying connection.
type countingConn struct {
	transport.Conn
	mu     sync.Mutex
	frames []string // "service.method" per frame, in order
}

func (c *countingConn) Call(ctx context.Context, service, method string, args, reply any) error {
	c.mu.Lock()
	c.frames = append(c.frames, service+"."+method)
	c.mu.Unlock()
	return c.Conn.Call(ctx, service, method, args, reply)
}

func (c *countingConn) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.frames...)
}

// testConn assembles mux → loopback → counting → coalescer.
func testConn(t *testing.T, opts Options, register func(*transport.Mux)) (*Conn, *countingConn) {
	t.Helper()
	mux := transport.NewMux()
	if register != nil {
		register(mux)
	}
	counting := &countingConn{Conn: transport.NewLoopback(mux)}
	c := New(counting, opts)
	t.Cleanup(func() { c.Close() })
	return c, counting
}

// putRecorder registers a doc.put handler that records ids in arrival
// order and fails ids the fail set names.
func putRecorder(ids *[]string, mu *sync.Mutex, fail map[string]bool) func(*transport.Mux) {
	return func(mux *transport.Mux) {
		transport.HandleTyped(mux, cloud.DocService, "put", func(_ context.Context, a *cloud.DocPutArgs) (any, error) {
			mu.Lock()
			*ids = append(*ids, a.ID)
			mu.Unlock()
			if fail[a.ID] {
				return nil, fmt.Errorf("put %s rejected", a.ID)
			}
			return nil, nil
		})
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func put(c *Conn, id string) error {
	return c.Call(context.Background(), cloud.DocService, "put", cloud.DocPutArgs{Collection: "c", ID: id, Blob: []byte(id)}, nil)
}

// TestSizeCapFlush stages MaxCalls concurrent writers one by one; the
// last enqueue must flush the whole queue on the size trigger.
func TestSizeCapFlush(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, counting := testConn(t, Options{NoGatherFlush: true, MaxCalls: 4, Window: time.Minute}, putRecorder(&ids, &mu, nil))

	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		waitUntil(t, "queue to fill", func() bool { return c.Stats().QueueDepth == i })
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = put(c, fmt.Sprintf("d%d", i))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	s := c.Stats()
	if s.FlushByTrigger[trigSize] != 1 || s.Flushes != 1 {
		t.Fatalf("want one size-triggered flush, got %+v", s.FlushByTrigger)
	}
	if len(ids) != 4 {
		t.Fatalf("handler saw %d puts, want 4", len(ids))
	}
	if frames := counting.snapshot(); len(frames) != 1 || frames[0] != "_batch.exec" {
		t.Fatalf("want one _batch.exec frame, got %v", frames)
	}
	if s.CoalescedSubCalls != 4 {
		t.Fatalf("want 4 coalesced sub-calls, got %d", s.CoalescedSubCalls)
	}
}

// TestByteCapFlush: a payload crossing MaxBytes flushes immediately.
func TestByteCapFlush(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{NoGatherFlush: true, MaxBytes: 256, Window: time.Minute}, putRecorder(&ids, &mu, nil))
	if err := c.Call(context.Background(), cloud.DocService, "put",
		cloud.DocPutArgs{Collection: "c", ID: "big", Blob: make([]byte, 512)}, nil); err != nil {
		t.Fatalf("put: %v", err)
	}
	if s := c.Stats(); s.FlushByTrigger[trigBytes] != 1 {
		t.Fatalf("want one bytes-triggered flush, got %+v", s.FlushByTrigger)
	}
}

// TestWindowFlush: with gather disabled, a lone write completes once the
// window timer fires.
func TestWindowFlush(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{NoGatherFlush: true, Window: 5 * time.Millisecond}, putRecorder(&ids, &mu, nil))
	t0 := time.Now()
	if err := put(c, "d1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if waited := time.Since(t0); waited < 5*time.Millisecond {
		t.Fatalf("put returned after %v, before the window", waited)
	}
	if s := c.Stats(); s.FlushByTrigger[trigWindow] != 1 {
		t.Fatalf("want one window-triggered flush, got %+v", s.FlushByTrigger)
	}
}

// TestDrainFlush: Drain releases a parked caller without waiting for any
// other trigger, and the underlying connection stays usable.
func TestDrainFlush(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{NoGatherFlush: true, Window: time.Minute}, putRecorder(&ids, &mu, nil))
	done := make(chan error, 1)
	go func() { done <- put(c, "d1") }()
	waitUntil(t, "write to queue", func() bool { return c.Stats().QueueDepth == 1 })
	c.Drain()
	if err := <-done; err != nil {
		t.Fatalf("put: %v", err)
	}
	if s := c.Stats(); s.FlushByTrigger[trigDrain] != 1 {
		t.Fatalf("want one drain-triggered flush, got %+v", s.FlushByTrigger)
	}
	// The connection stays usable after a drain.
	go func() { done <- put(c, "d2") }()
	waitUntil(t, "write to queue", func() bool { return c.Stats().QueueDepth == 1 })
	c.Drain()
	if err := <-done; err != nil {
		t.Fatalf("post-drain put: %v", err)
	}
}

// TestGatherFlush exercises the gather trigger end to end: one caller's
// solo flush is held in the handler while two more callers enqueue; when
// the first caller departs, the remaining two (both contributed) must
// flush together in a single frame without waiting for the window.
func TestGatherFlush(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	block := make(chan struct{})
	entered := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	c, counting := testConn(t, Options{Window: time.Minute}, func(mux *transport.Mux) {
		transport.HandleTyped(mux, cloud.DocService, "put", func(_ context.Context, a *cloud.DocPutArgs) (any, error) {
			if first.CompareAndSwap(true, false) {
				close(entered)
				<-block
			}
			mu.Lock()
			ids = append(ids, a.ID)
			mu.Unlock()
			return nil, nil
		})
	})

	errs := make([]error, 3)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = put(c, "w1") }()
	<-entered // w1 is in flight (solo gather flush), its caller still active
	for i := 1; i <= 2; i++ {
		i := i
		waitUntil(t, "write to queue", func() bool { return c.Stats().QueueDepth == i-1 })
		wg.Add(1)
		go func() { defer wg.Done(); errs[i] = put(c, fmt.Sprintf("w%d", i+1)) }()
	}
	waitUntil(t, "both writes queued", func() bool { return c.Stats().QueueDepth == 2 })
	close(block)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	s := c.Stats()
	if s.FlushByTrigger[trigGather] != 2 {
		t.Fatalf("want two gather-triggered flushes, got %+v", s.FlushByTrigger)
	}
	if s.FlushByTrigger[trigWindow] != 0 {
		t.Fatalf("window should not have fired: %+v", s.FlushByTrigger)
	}
	// First frame is the solo put, second carries w2+w3 batched.
	if frames := counting.snapshot(); len(frames) != 2 || frames[0] != "doc.put" || frames[1] != "_batch.exec" {
		t.Fatalf("want [doc.put _batch.exec], got %v", frames)
	}
}

// TestErrorFanout: a per-call handler failure reaches only its caller;
// the other sub-calls of the same flush succeed.
func TestErrorFanout(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{NoGatherFlush: true, MaxCalls: 2, Window: time.Minute},
		putRecorder(&ids, &mu, map[string]bool{"bad": true}))

	done := make(chan error, 1)
	go func() { done <- put(c, "good") }()
	waitUntil(t, "first write to queue", func() bool { return c.Stats().QueueDepth == 1 })
	badErr := put(c, "bad") // second enqueue hits MaxCalls and flushes
	goodErr := <-done
	if goodErr != nil {
		t.Fatalf("good put failed: %v", goodErr)
	}
	var re *transport.RemoteError
	if badErr == nil || !errors.As(badErr, &re) {
		t.Fatalf("bad put: want remote error, got %v", badErr)
	}
}

// TestTransportErrorFanout: a transport-level flush failure reaches every
// caller of the affected flush.
func TestTransportErrorFanout(t *testing.T) {
	mux := transport.NewMux()
	under := failBatches{Conn: transport.NewLoopback(mux)}
	c := New(under, Options{NoGatherFlush: true, MaxCalls: 2, Window: time.Minute})
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- put(c, "a") }()
	waitUntil(t, "first write to queue", func() bool { return c.Stats().QueueDepth == 1 })
	err2 := put(c, "b")
	err1 := <-done
	if !errors.Is(err1, errLinkDown) || !errors.Is(err2, errLinkDown) {
		t.Fatalf("want link-down on both callers, got %v / %v", err1, err2)
	}
}

var errLinkDown = errors.New("link down")

type failBatches struct{ transport.Conn }

func (f failBatches) Call(ctx context.Context, service, method string, args, reply any) error {
	if service == transport.BatchService {
		return errLinkDown
	}
	return f.Conn.Call(ctx, service, method, args, reply)
}

// TestSingleflight: identical concurrent reads share one queue entry and
// one handler invocation, and a later identical read (after the flush)
// hits the server again — read-your-writes is preserved.
func TestSingleflight(t *testing.T) {
	var calls atomic.Int64
	c, _ := testConn(t, Options{NoGatherFlush: true, Window: time.Minute}, func(mux *transport.Mux) {
		transport.HandleTyped(mux, dettactic.Service, "lookup", func(context.Context, *dettactic.LookupArgs) (any, error) {
			calls.Add(1)
			return &dettactic.LookupReply{DocIDs: []string{"id1"}}, nil
		})
	})
	lookup := func() ([]string, error) {
		var out dettactic.LookupReply
		err := c.Call(context.Background(), dettactic.Service, "lookup", dettactic.LookupArgs{CT: []byte("tk")}, &out)
		return out.DocIDs, err
	}

	res := make([][]string, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); res[0], errs[0] = lookup() }()
	waitUntil(t, "read to queue", func() bool { return c.Stats().QueueDepth == 1 })
	wg.Add(1)
	go func() { defer wg.Done(); res[1], errs[1] = lookup() }()
	waitUntil(t, "read to join", func() bool { return c.Stats().DedupHits == 1 })
	c.Drain()
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		if len(res[i]) != 1 || res[i][0] != "id1" {
			t.Fatalf("lookup %d: got %v", i, res[i])
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times for two identical in-flight reads, want 1", n)
	}

	// The flushed entry must not be joinable: a fresh identical read hits
	// the server again.
	done := make(chan struct{})
	go func() { defer close(done); lookup() }()
	waitUntil(t, "fresh read to queue", func() bool { return c.Stats().QueueDepth == 1 })
	c.Drain()
	<-done
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times after a post-flush read, want 2", n)
	}
}

// TestGetManyMerge: concurrent doc.get of one collection merge into a
// single doc.getmany frame, and a missing id yields the not-found error a
// direct doc.get would have produced.
func TestGetManyMerge(t *testing.T) {
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	defer node.Close()
	counting := &countingConn{Conn: transport.NewLoopback(node.Mux)}
	c := New(counting, Options{NoGatherFlush: true, Window: time.Minute})
	defer c.Close()
	ctx := context.Background()

	seed := make(chan error, 1)
	go func() {
		seed <- c.Call(ctx, cloud.DocService, "put", cloud.DocPutArgs{Collection: "col", ID: "a", Blob: []byte("blob-a")}, nil)
	}()
	waitUntil(t, "seed put to queue", func() bool { return c.Stats().QueueDepth == 1 })
	c.Drain()
	if err := <-seed; err != nil {
		t.Fatalf("seed put: %v", err)
	}

	type getRes struct {
		reply cloud.DocGetReply
		err   error
	}
	results := make([]getRes, 2)
	var wg sync.WaitGroup
	for i, id := range []string{"a", "missing"} {
		i, id := i, id
		waitUntil(t, "get to queue", func() bool { return c.Stats().QueueDepth == i })
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i].err = c.Call(ctx, cloud.DocService, "get", cloud.DocGetArgs{Collection: "col", ID: id}, &results[i].reply)
		}()
	}
	waitUntil(t, "both gets queued", func() bool { return c.Stats().QueueDepth == 2 })
	c.Drain()
	wg.Wait()

	if results[0].err != nil || string(results[0].reply.Blob) != "blob-a" {
		t.Fatalf("get a: blob %q, err %v", results[0].reply.Blob, results[0].err)
	}
	var re *transport.RemoteError
	if !errors.As(results[1].err, &re) || re.Code != transport.CodeNotFound {
		t.Fatalf("get missing: want coded not-found, got %v", results[1].err)
	}
	if s := c.Stats(); s.GetsMerged != 2 {
		t.Fatalf("want 2 merged gets, got %d", s.GetsMerged)
	}
	var batches int
	for _, f := range counting.snapshot() {
		if f == "_batch.exec" {
			batches++
		}
	}
	if batches != 1 {
		t.Fatalf("want the merged gets in one batch frame, got %d", batches)
	}
}

// TestCallBatchSplice: a caller-built batch joins the shared queue behind
// an already-queued write, flushes with it in one frame, and keeps its
// sub-call order.
func TestCallBatchSplice(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, counting := testConn(t, Options{NoGatherFlush: true, MaxCalls: 3, Window: time.Minute}, putRecorder(&ids, &mu, nil))

	done := make(chan error, 1)
	go func() { done <- put(c, "solo") }()
	waitUntil(t, "write to queue", func() bool { return c.Stats().QueueDepth == 1 })

	calls := []transport.BatchCall{
		{Service: cloud.DocService, Method: "put", Args: cloud.DocPutArgs{Collection: "c", ID: "b1", Blob: []byte("x")}},
		{Service: cloud.DocService, Method: "put", Args: cloud.DocPutArgs{Collection: "c", ID: "b2", Blob: []byte("y")}},
	}
	results, err := c.CallBatch(context.Background(), calls)
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("solo put: %v", err)
	}
	if len(results) != 2 || results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("batch results: %+v", results)
	}
	mu.Lock()
	got := append([]string(nil), ids...)
	mu.Unlock()
	if len(got) != 3 || got[0] != "solo" || got[1] != "b1" || got[2] != "b2" {
		t.Fatalf("server saw order %v, want [solo b1 b2]", got)
	}
	if frames := counting.snapshot(); len(frames) != 1 || frames[0] != "_batch.exec" {
		t.Fatalf("want one merged frame, got %v", frames)
	}
}

// TestAbandonedCaller: a caller whose context ends stops waiting, but its
// queued write still flushes; the remaining callers are unaffected.
func TestAbandonedCaller(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{NoGatherFlush: true, Window: time.Minute}, putRecorder(&ids, &mu, nil))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.Call(ctx, cloud.DocService, "put", cloud.DocPutArgs{Collection: "c", ID: "orphan", Blob: []byte("x")}, nil)
	}()
	waitUntil(t, "write to queue", func() bool { return c.Stats().QueueDepth == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller: want context.Canceled, got %v", err)
	}
	c.Drain()
	mu.Lock()
	n := len(ids)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("orphaned write should still flush, server saw %d puts", n)
	}
}

// TestPassthrough: setup and admin traffic bypasses the queue entirely.
func TestPassthrough(t *testing.T) {
	c, counting := testConn(t, Options{NoGatherFlush: true, Window: time.Minute}, func(mux *transport.Mux) {
		transport.HandleTyped(mux, sophostactic.Service, "setup", func(context.Context, *sophostactic.SetupArgs) (any, error) {
			return nil, nil
		})
	})
	if err := c.Call(context.Background(), sophostactic.Service, "setup", nil, nil); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if s := c.Stats(); s.Passthrough != 1 || s.Enqueued != 0 {
		t.Fatalf("setup should pass through: %+v", s)
	}
	if frames := counting.snapshot(); len(frames) != 1 || frames[0] != sophostactic.Service+".setup" {
		t.Fatalf("frames: %v", frames)
	}
}

// TestDisabled routes everything straight through.
func TestDisabled(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, counting := testConn(t, Options{Disabled: true}, putRecorder(&ids, &mu, nil))
	if err := put(c, "d1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if s := c.Stats(); s.Passthrough != 1 || s.Flushes != 0 {
		t.Fatalf("disabled conn must not flush: %+v", s)
	}
	if frames := counting.snapshot(); len(frames) != 1 || frames[0] != "doc.put" {
		t.Fatalf("frames: %v", frames)
	}
}

// TestClassification cross-checks the method table against the tactic
// packages' service names: every tactic read/write the engine issues must
// coalesce, and setup must not.
func TestClassification(t *testing.T) {
	writes := map[string][]string{
		cloud.DocService:     {"put", "putmany", "delete", "deletemany"},
		dettactic.Service:    {"add", "remove"},
		mitratactic.Service:  {"insert"},
		sophostactic.Service: {"insert"},
		biextactic.Service:   {"insert", "repack"},
		opetactic.Service:    {"add", "remove"},
		oretactic.Service:    {"add", "remove"},
		aggtactic.Service:    {"put", "remove"},
		rndtactic.Service:    {"put", "remove"},
	}
	reads := map[string][]string{
		cloud.DocService:     {"getmany", "count"},
		dettactic.Service:    {"lookup"},
		mitratactic.Service:  {"search"},
		sophostactic.Service: {"search"},
		biextactic.Service:   {"search"},
		opetactic.Service:    {"query"},
		oretactic.Service:    {"query"},
		aggtactic.Service:    {"sum"},
		rndtactic.Service:    {"scan"},
	}
	for svc, methods := range writes {
		for _, m := range methods {
			if got := classify(svc, m); got != opWrite {
				t.Errorf("classify(%s.%s) = %d, want write", svc, m, got)
			}
		}
	}
	for svc, methods := range reads {
		for _, m := range methods {
			if got := classify(svc, m); got != opRead {
				t.Errorf("classify(%s.%s) = %d, want read", svc, m, got)
			}
		}
	}
	if classify(cloud.DocService, "get") != opGet {
		t.Errorf("doc.get must classify as mergeable get")
	}
	for _, pass := range [][2]string{
		{sophostactic.Service, "setup"},
		{aggtactic.Service, "setup"},
		{cloud.AdminService, "stats"},
		{cloud.DocService, "scan"},
		{"unknown", "method"},
	} {
		if got := classify(pass[0], pass[1]); got != opPass {
			t.Errorf("classify(%s.%s) = %d, want passthrough", pass[0], pass[1], got)
		}
	}
}

// TestAggregate: package-level aggregation sums live conns and drops
// closed ones.
func TestAggregate(t *testing.T) {
	before := Aggregate()
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{NoGatherFlush: true, MaxCalls: 1}, putRecorder(&ids, &mu, nil))
	if err := put(c, "d1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	after := Aggregate()
	if after.Enqueued-before.Enqueued != 1 || after.Flushes-before.Flushes != 1 {
		t.Fatalf("aggregate did not pick up the conn: before %+v after %+v", before, after)
	}
}
