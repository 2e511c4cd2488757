package coalesce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablinder/internal/cloud"
	// The tactics package imports every tactic, so the full production
	// codec registry is visible to TestClassification.
	_ "datablinder/internal/tactics"
	dettactic "datablinder/internal/tactics/det"
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

// holdGather enters a caller that never contributes, so the gather trigger
// cannot fire and only size, bytes, window and drain flush. The caller
// leaves at cleanup, before the conn closes.
func holdGather(t *testing.T, c *Conn) {
	c.enter()
	t.Cleanup(c.exit)
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

// TestSizeCapFlush stages maxCalls concurrent writers one by one; the
// last enqueue must flush the whole queue on the size trigger.
func TestSizeCapFlush(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, counting := testConn(t, Options{}, putRecorder(&ids, &mu, nil))
	c.maxCalls, c.window = 4, time.Minute
	holdGather(t, c)

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

// TestByteCapFlush: a payload crossing maxBytes flushes immediately.
func TestByteCapFlush(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{}, putRecorder(&ids, &mu, nil))
	c.maxBytes, c.window = 256, time.Minute
	holdGather(t, c)
	if err := c.Call(context.Background(), cloud.DocService, "put",
		cloud.DocPutArgs{Collection: "c", ID: "big", Blob: make([]byte, 512)}, nil); err != nil {
		t.Fatalf("put: %v", err)
	}
	if s := c.Stats(); s.FlushByTrigger[trigBytes] != 1 {
		t.Fatalf("want one bytes-triggered flush, got %+v", s.FlushByTrigger)
	}
}

// TestWindowFlush: with the gather condition held open, a lone write
// completes once the window timer fires.
func TestWindowFlush(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{}, putRecorder(&ids, &mu, nil))
	c.window = 5 * time.Millisecond
	holdGather(t, c)
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
	c, _ := testConn(t, Options{}, putRecorder(&ids, &mu, nil))
	c.window = time.Minute
	holdGather(t, c)
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
	c, counting := testConn(t, Options{}, func(mux *transport.Mux) {
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
	c.window = time.Minute

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

// TestReadSkipsTheQueue: while one caller's write is in flight (its caller
// holding the gather condition open) and the window is a minute, a second
// caller's read must reach the shard at once instead of queueing behind it.
func TestReadSkipsTheQueue(t *testing.T) {
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	defer release()
	entered := make(chan struct{})
	c, counting := testConn(t, Options{}, func(mux *transport.Mux) {
		transport.HandleTyped(mux, cloud.DocService, "put", func(context.Context, *cloud.DocPutArgs) (any, error) {
			close(entered)
			<-block
			return nil, nil
		})
		transport.HandleTyped(mux, dettactic.Service, "lookup", func(context.Context, *dettactic.LookupArgs) (any, error) {
			return &dettactic.LookupReply{DocIDs: []string{"id1"}}, nil
		})
	})
	c.window = time.Minute

	wrote := make(chan error, 1)
	go func() { wrote <- put(c, "w1") }()
	<-entered

	var got dettactic.LookupReply
	read := make(chan error, 1)
	go func() {
		read <- c.Call(context.Background(), dettactic.Service, "lookup", dettactic.LookupArgs{CT: []byte("tk")}, &got)
	}()
	select {
	case err := <-read:
		if err != nil || len(got.DocIDs) != 1 || got.DocIDs[0] != "id1" {
			t.Fatalf("lookup: %v, %v", got.DocIDs, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the read waited behind the in-flight write")
	}
	release()
	if err := <-wrote; err != nil {
		t.Fatalf("put: %v", err)
	}
	if frames := counting.snapshot(); len(frames) != 2 || frames[0] != "doc.put" || frames[1] != dettactic.Service+".lookup" {
		t.Fatalf("want [doc.put %s.lookup], got %v", dettactic.Service, frames)
	}
	if s := c.Stats(); s.Enqueued != 1 || s.Passthrough != 1 {
		t.Fatalf("want the write queued and the read passed through: %+v", s)
	}
}

// TestErrorFanout: a per-call handler failure reaches only its caller;
// the other sub-calls of the same flush succeed.
func TestErrorFanout(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{}, putRecorder(&ids, &mu, map[string]bool{"bad": true}))
	c.maxCalls, c.window = 2, time.Minute
	holdGather(t, c)

	done := make(chan error, 1)
	go func() { done <- put(c, "good") }()
	waitUntil(t, "first write to queue", func() bool { return c.Stats().QueueDepth == 1 })
	badErr := put(c, "bad") // second enqueue hits maxCalls and flushes
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
	c := New(under, Options{})
	defer c.Close()
	c.maxCalls, c.window = 2, time.Minute
	holdGather(t, c)

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

// TestCallBatchSplice: a caller-built batch joins the shared queue behind
// an already-queued write, flushes with it in one frame, and keeps its
// sub-call order.
func TestCallBatchSplice(t *testing.T) {
	var ids []string
	var mu sync.Mutex
	c, counting := testConn(t, Options{}, putRecorder(&ids, &mu, nil))
	c.maxCalls, c.window = 3, time.Minute
	holdGather(t, c)

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
	c, _ := testConn(t, Options{}, putRecorder(&ids, &mu, nil))
	c.window = time.Minute
	holdGather(t, c)

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

// TestPassthrough: reads and methods without a codec bypass the queue
// entirely, even while the gather condition is held open.
func TestPassthrough(t *testing.T) {
	c, counting := testConn(t, Options{}, func(mux *transport.Mux) {
		transport.HandleTyped(mux, dettactic.Service, "lookup", func(context.Context, *dettactic.LookupArgs) (any, error) {
			return &dettactic.LookupReply{}, nil
		})
	})
	c.window = time.Minute
	holdGather(t, c)
	var reply dettactic.LookupReply
	if err := c.Call(context.Background(), dettactic.Service, "lookup", dettactic.LookupArgs{CT: []byte("tk")}, &reply); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if err := c.Call(context.Background(), "unknown", "method", nil, nil); err == nil {
		t.Fatal("a method without a codec succeeded")
	}
	if s := c.Stats(); s.Passthrough != 2 || s.Enqueued != 0 {
		t.Fatalf("reads should pass through: %+v", s)
	}
	if frames := counting.snapshot(); len(frames) != 2 || frames[0] != dettactic.Service+".lookup" || frames[1] != "unknown.method" {
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

// argsConn records the argument value of every call reaching it and
// answers each with an empty reply.
type argsConn struct {
	args []any
}

func (a *argsConn) Call(_ context.Context, _, _ string, args, _ any) error {
	a.args = append(a.args, args)
	return nil
}

func (*argsConn) Close() error { return nil }

// TestClassification sends one call of every method in the production
// codec registry through the coalescer: a method whose codec has no reply
// is queued (and reaches the shard as a pre-encoded flush), every other
// method passes straight through with its own arguments.
func TestClassification(t *testing.T) {
	under := &argsConn{}
	c := New(under, Options{})
	defer c.Close()
	queued := map[string]bool{}
	for _, name := range transport.RegisteredWireMethods() {
		codec := transport.LookupCodec(name)
		service, method, _ := strings.Cut(name, ".")
		before := c.Stats()
		if err := c.Call(context.Background(), service, method, codec.NewArgs(), nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := c.Stats()
		_, raw := under.args[len(under.args)-1].(transport.RawArgs)
		enq, pass := after.Enqueued-before.Enqueued, after.Passthrough-before.Passthrough
		if write := codec.NewReply == nil; write {
			if enq != 1 || pass != 0 || !raw {
				t.Errorf("%s has no reply but was not queued (enqueued %d, passed %d)", name, enq, pass)
			}
		} else if enq != 0 || pass != 1 || raw {
			t.Errorf("%s has a reply but was queued (enqueued %d, passed %d)", name, enq, pass)
		}
		queued[name] = enq == 1
	}
	for name, want := range map[string]bool{
		"doc.put": true, "doc.delete": true, "biex.insert": true, "agg.setup": true, "sophos.setup": true,
		"doc.get": false, "doc.getmany": false, "det.lookup": false, "biex.search": false, "admin.stats": false,
	} {
		if got, ok := queued[name]; !ok || got != want {
			t.Errorf("%s: queued = %v (registered %v), want %v", name, got, ok, want)
		}
	}
}

// TestAggregate: package-level aggregation sums live conns and drops
// closed ones.
func TestAggregate(t *testing.T) {
	before := Aggregate()
	var ids []string
	var mu sync.Mutex
	c, _ := testConn(t, Options{}, putRecorder(&ids, &mu, nil))
	if err := put(c, "d1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	after := Aggregate()
	if after.Enqueued-before.Enqueued != 1 || after.Flushes-before.Flushes != 1 {
		t.Fatalf("aggregate did not pick up the conn: before %+v after %+v", before, after)
	}
}
