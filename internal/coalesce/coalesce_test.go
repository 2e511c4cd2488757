package coalesce

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"datablinder/internal/cloud"
	// The tactics package imports every tactic, so the full production
	// codec registry is visible to TestClassification.
	_ "datablinder/internal/tactics"
	dettactic "datablinder/internal/tactics/det"
	"datablinder/internal/transport"
)

type ctxKey struct{}

// frame is one call that reached the underlying connection.
type frame struct {
	name string // service.method
	tag  any    // the ctxKey value of the call's context
}

// recConn records every frame reaching the underlying connection. When
// hold is set, the first frame waits for it to close (after closing held),
// so a test can keep a flush in flight while writers arrive. failBatch,
// when set, fails every _batch.exec frame at the transport level.
type recConn struct {
	transport.Conn
	hold, held chan struct{}
	failBatch  error

	mu     sync.Mutex
	frames []frame
}

func (c *recConn) Call(ctx context.Context, service, method string, args, reply any) error {
	c.mu.Lock()
	first := len(c.frames) == 0
	c.frames = append(c.frames, frame{name: service + "." + method, tag: ctx.Value(ctxKey{})})
	c.mu.Unlock()
	if first && c.hold != nil {
		close(c.held)
		<-c.hold
	}
	if service == transport.BatchService && c.failBatch != nil {
		return c.failBatch
	}
	return c.Conn.Call(ctx, service, method, args, reply)
}

func (c *recConn) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.frames))
	for i, f := range c.frames {
		out[i] = f.name
	}
	return out
}

// testConn assembles mux → loopback → recorder → coalescer.
func testConn(t *testing.T, opts Options, register func(*transport.Mux)) (*Conn, *recConn) {
	t.Helper()
	mux := transport.NewMux()
	if register != nil {
		register(mux)
	}
	return recordedConn(t, opts, transport.NewLoopback(mux))
}

// recordedConn assembles under → recorder → coalescer.
func recordedConn(t *testing.T, opts Options, under transport.Conn) (*Conn, *recConn) {
	t.Helper()
	rec := &recConn{Conn: under}
	c := New(rec, opts)
	t.Cleanup(func() { c.Close() })
	return c, rec
}

// heldConn is testConn whose first frame is held until release is called.
func heldConn(t *testing.T, register func(*transport.Mux)) (c *Conn, rec *recConn, release func()) {
	t.Helper()
	c, rec = testConn(t, Options{}, register)
	return c, rec, hold(t, rec)
}

// hold makes rec's first frame wait until release is called.
func hold(t *testing.T, rec *recConn) (release func()) {
	rec.hold, rec.held = make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(rec.hold) })
	t.Cleanup(release) // before the conn's Close, which waits for the flush
	return release
}

// recorder is a doc.put handler that records ids in arrival order and
// fails the ids its fail set names.
type recorder struct {
	fail map[string]bool

	mu  sync.Mutex
	ids []string
}

func (r *recorder) register(mux *transport.Mux) {
	transport.HandleTyped(mux, cloud.DocService, "put", func(_ context.Context, a *cloud.DocPutArgs) (any, error) {
		r.mu.Lock()
		r.ids = append(r.ids, a.ID)
		r.mu.Unlock()
		if r.fail[a.ID] {
			return nil, fmt.Errorf("put %s rejected", a.ID)
		}
		return nil, nil
	})
}

func (r *recorder) seen() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.ids...)
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

// waitParked waits until n callers are parked behind the in-flight flush.
func waitParked(t *testing.T, c *Conn, n int) {
	t.Helper()
	waitUntil(t, fmt.Sprintf("%d parked writers", n), func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.parked) == n
	})
}

func putCall(id string, blob []byte) transport.BatchCall {
	return transport.BatchCall{Service: cloud.DocService, Method: "put", Args: cloud.DocPutArgs{Collection: "c", ID: id, Blob: blob}}
}

func put(ctx context.Context, c *Conn, id string) error {
	return c.Call(ctx, cloud.DocService, "put", cloud.DocPutArgs{Collection: "c", ID: id, Blob: []byte(id)}, nil)
}

// TestIdleWriteGoesDirect: a write to an idle shard is sent by its caller,
// on its caller's context — a lone Call as a plain frame of its own
// method, a lone batch as one _batch.exec — and no merged flush follows.
func TestIdleWriteGoesDirect(t *testing.T) {
	var r recorder
	c, rec := testConn(t, Options{}, r.register)
	ctx := context.WithValue(context.Background(), ctxKey{}, "caller")
	if err := put(ctx, c, "d1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, err := c.CallBatch(ctx, []transport.BatchCall{putCall("b1", nil), putCall("b2", nil)}); err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	c.Drain()
	rec.mu.Lock()
	frames := append([]frame(nil), rec.frames...)
	rec.mu.Unlock()
	want := []frame{{"doc.put", "caller"}, {"_batch.exec", "caller"}}
	if len(frames) != len(want) || frames[0] != want[0] || frames[1] != want[1] {
		t.Fatalf("frames = %v, want %v", frames, want)
	}
	s := c.Stats()
	if s.FlushByTrigger[flushDirect] != 2 || s.Flushes != 2 || s.SubCalls != 3 || s.CoalescedSubCalls != 0 {
		t.Fatalf("want two direct flushes of 3 sub-calls: %+v", s)
	}
}

// TestMergedFlush holds the first flush while n writers arrive, each with
// a batch of its own: after release exactly one more frame goes out, and
// it carries every caller's sub-calls, each caller's contiguous and in
// order.
func TestMergedFlush(t *testing.T) {
	const n, per = 5, 3
	var r recorder
	c, rec, release := heldConn(t, r.register)
	first := make(chan error, 1)
	go func() { first <- put(context.Background(), c, "first") }()
	<-rec.held

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		calls := make([]transport.BatchCall, per)
		for j := range calls {
			calls[j] = putCall(fmt.Sprintf("w%d-%d", i, j), nil)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.CallBatch(context.Background(), calls)
			if err == nil && len(res) != per {
				err = fmt.Errorf("%d results for %d calls", len(res), per)
			}
			errs[i] = err
		}(i)
	}
	waitParked(t, c, n)
	release()
	if err := <-first; err != nil {
		t.Fatalf("first put: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	c.Drain()
	if frames := rec.names(); len(frames) != 2 || frames[0] != "doc.put" || frames[1] != "_batch.exec" {
		t.Fatalf("want [doc.put _batch.exec], got %v", frames)
	}
	ids := r.seen()
	if len(ids) != 1+n*per || ids[0] != "first" {
		t.Fatalf("server saw %v", ids)
	}
	for k := 1; k < len(ids); k += per {
		var w int
		if _, err := fmt.Sscanf(ids[k], "w%d-0", &w); err != nil {
			t.Fatalf("sub-call %d is %s, want the start of a caller's batch (server saw %v)", k, ids[k], ids)
		}
		for j := 1; j < per; j++ {
			if want := fmt.Sprintf("w%d-%d", w, j); ids[k+j] != want {
				t.Fatalf("caller %d's calls are split or reordered: server saw %v", w, ids)
			}
		}
	}
	s := c.Stats()
	if s.FlushByTrigger[flushDirect] != 1 || s.FlushByTrigger[flushMerged] != 1 || s.CoalescedSubCalls != n*per {
		t.Fatalf("want one direct and one merged flush of %d coalesced sub-calls: %+v", n*per, s)
	}
}

// TestMergedFlushChunks: a merged flush larger than one batch frame's cap
// reaches the shard connection whole, as one _batch.exec call, and the TCP
// connection under it ships it as several frames, in order.
func TestMergedFlushChunks(t *testing.T) {
	const n = 4
	var r recorder
	mux := transport.NewMux()
	r.register(mux)
	srv := transport.NewServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sock, err := transport.Dial(addr, transport.DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, rec := recordedConn(t, Options{}, sock)
	release := hold(t, rec)
	first := make(chan error, 1)
	go func() { first <- put(context.Background(), c, "first") }()
	<-rec.held

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		blob := make([]byte, 20<<10)
		go func(i int) {
			errs <- c.Call(context.Background(), cloud.DocService, "put", cloud.DocPutArgs{Collection: "c", ID: fmt.Sprintf("w%d", i), Blob: blob}, nil)
		}(i)
		waitParked(t, c, i+1) // fixes the parking order
	}
	// Each frame of the flush is read once by the server and its response
	// once by the client, and both ends bill this process's counters.
	framesIn := func() uint64 {
		return transport.WireStats().Methods[transport.BatchService+"."+transport.BatchMethod].FramesIn
	}
	before := framesIn()
	release()
	if err := <-first; err != nil {
		t.Fatalf("first put: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	c.Drain()
	if calls := rec.names(); fmt.Sprint(calls) != "[doc.put _batch.exec]" {
		t.Fatalf("want the held put and one merged batch, got %v", calls)
	}
	if frames := (framesIn() - before) / 2; frames < 2 {
		t.Fatalf("the merged batch shipped in %d frames, want at least two", frames)
	}
	if got := strings.Join(r.seen(), " "); got != "first w0 w1 w2 w3" {
		t.Fatalf("server order %q, want \"first w0 w1 w2 w3\"", got)
	}
	if s := c.Stats(); s.FlushByTrigger[flushMerged] != 1 {
		t.Fatalf("the chunks belong to one merged flush: %+v", s)
	}
}

// TestReadSkipsTheQueue: while a write is in flight, a second caller's
// read reaches the shard at once instead of parking behind it.
func TestReadSkipsTheQueue(t *testing.T) {
	c, rec, release := heldConn(t, func(mux *transport.Mux) {
		transport.HandleTyped(mux, cloud.DocService, "put", func(context.Context, *cloud.DocPutArgs) (any, error) {
			return nil, nil
		})
		transport.HandleTyped(mux, dettactic.Service, "lookup", func(context.Context, *dettactic.LookupArgs) (any, error) {
			return &dettactic.LookupReply{DocIDs: []string{"id1"}}, nil
		})
	})
	wrote := make(chan error, 1)
	go func() { wrote <- put(context.Background(), c, "w1") }()
	<-rec.held

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
	if frames := rec.names(); len(frames) != 2 || frames[0] != "doc.put" || frames[1] != dettactic.Service+".lookup" {
		t.Fatalf("want [doc.put %s.lookup], got %v", dettactic.Service, frames)
	}
	if s := c.Stats(); s.SubCalls != 1 || s.Flushes != 1 {
		t.Fatalf("want the write flushed and the read passed through: %+v", s)
	}
}

// TestErrorFanout: a sub-call's handler failure reaches only its caller;
// the other callers of the same merged flush succeed.
func TestErrorFanout(t *testing.T) {
	r := recorder{fail: map[string]bool{"bad": true}}
	c, rec, release := heldConn(t, r.register)
	first := make(chan error, 1)
	go func() { first <- put(context.Background(), c, "first") }()
	<-rec.held

	good, bad := make(chan error, 1), make(chan error, 1)
	go func() { good <- put(context.Background(), c, "good") }()
	waitParked(t, c, 1)
	go func() { bad <- put(context.Background(), c, "bad") }()
	waitParked(t, c, 2)
	release()
	if err := <-first; err != nil {
		t.Fatalf("first put: %v", err)
	}
	if err := <-good; err != nil {
		t.Fatalf("good put failed: %v", err)
	}
	var re *transport.RemoteError
	if err := <-bad; err == nil || !errors.As(err, &re) {
		t.Fatalf("bad put: want remote error, got %v", err)
	}
	if frames := rec.names(); len(frames) != 2 || frames[1] != "_batch.exec" {
		t.Fatalf("good and bad should share one merged frame: %v", frames)
	}
}

// TestTransportErrorFanout: a transport-level failure of a merged flush
// reaches every caller in it.
func TestTransportErrorFanout(t *testing.T) {
	var r recorder
	c, rec, release := heldConn(t, r.register)
	rec.failBatch = errLinkDown
	first := make(chan error, 1)
	go func() { first <- put(context.Background(), c, "first") }()
	<-rec.held

	errs := make(chan error, 2)
	go func() { errs <- put(context.Background(), c, "a") }()
	go func() {
		_, err := c.CallBatch(context.Background(), []transport.BatchCall{putCall("b1", nil), putCall("b2", nil)})
		errs <- err
	}()
	waitParked(t, c, 2)
	release()
	if err := <-first; err != nil {
		t.Fatalf("the held direct put: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errLinkDown) {
			t.Fatalf("want link-down on every caller of the merged flush, got %v", err)
		}
	}
}

var errLinkDown = errors.New("link down")

// TestCallBatchSplice: a caller-built batch parked behind an in-flight
// write joins the merged flush whole, between the writes parked before and
// after it, in one frame.
func TestCallBatchSplice(t *testing.T) {
	var r recorder
	c, rec, release := heldConn(t, r.register)
	first := make(chan error, 1)
	go func() { first <- put(context.Background(), c, "solo") }()
	<-rec.held

	before, after := make(chan error, 1), make(chan error, 1)
	go func() { before <- put(context.Background(), c, "p1") }()
	waitParked(t, c, 1)
	type out struct {
		res []transport.BatchResult
		err error
	}
	batch := make(chan out, 1)
	go func() {
		res, err := c.CallBatch(context.Background(), []transport.BatchCall{putCall("b1", []byte("x")), putCall("b2", []byte("y"))})
		batch <- out{res, err}
	}()
	waitParked(t, c, 2)
	go func() { after <- put(context.Background(), c, "p2") }()
	waitParked(t, c, 3)
	release()

	for _, ch := range []chan error{first, before, after} {
		if err := <-ch; err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	b := <-batch
	if b.err != nil || len(b.res) != 2 || b.res[0].Err != nil || b.res[1].Err != nil {
		t.Fatalf("batch results: %+v, %v", b.res, b.err)
	}
	if got := strings.Join(r.seen(), " "); got != "solo p1 b1 b2 p2" {
		t.Fatalf("server order %q, want \"solo p1 b1 b2 p2\"", got)
	}
	if frames := rec.names(); len(frames) != 2 || frames[1] != "_batch.exec" {
		t.Fatalf("want the held put and one merged frame, got %v", frames)
	}
}

// TestAbandonedCaller: a parked caller whose context ends stops waiting,
// but its write still ships with the merged flush, and Close waits for it.
func TestAbandonedCaller(t *testing.T) {
	var r recorder
	c, rec, release := heldConn(t, r.register)
	first := make(chan error, 1)
	go func() { first <- put(context.Background(), c, "first") }()
	<-rec.held

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- put(ctx, c, "orphan") }()
	waitParked(t, c, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller: want context.Canceled, got %v", err)
	}

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a flush was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("first put: %v", err)
	}
	if got := strings.Join(r.seen(), " "); got != "first orphan" {
		t.Fatalf("the orphaned write should still ship; server saw %q", got)
	}
}

// TestConcurrentWriters: many callers writing at once all land, each
// exactly once, and the conn ends idle with nothing parked.
func TestConcurrentWriters(t *testing.T) {
	const callers, each = 8, 25
	var r recorder
	c, _ := testConn(t, Options{}, r.register)
	var wg sync.WaitGroup
	errs := make(chan error, callers*each)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				errs <- put(context.Background(), c, fmt.Sprintf("c%d-%d", i, j))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	c.Drain()
	seen := map[string]bool{}
	for _, id := range r.seen() {
		if seen[id] {
			t.Fatalf("%s landed twice", id)
		}
		seen[id] = true
	}
	if len(seen) != callers*each {
		t.Fatalf("server saw %d writes, want %d", len(seen), callers*each)
	}
	c.mu.Lock()
	busy, parked := c.busy, len(c.parked)
	c.mu.Unlock()
	if busy || parked != 0 {
		t.Fatalf("after Drain: busy %v, %d parked", busy, parked)
	}
	if s := c.Stats(); s.SubCalls != callers*each {
		t.Fatalf("stats count %d sub-calls, want %d", s.SubCalls, callers*each)
	}
}

// TestPassthrough: reads and methods without a codec bypass group commit
// entirely, even while a write is in flight.
func TestPassthrough(t *testing.T) {
	var r recorder
	c, rec, release := heldConn(t, func(mux *transport.Mux) {
		r.register(mux)
		transport.HandleTyped(mux, dettactic.Service, "lookup", func(context.Context, *dettactic.LookupArgs) (any, error) {
			return &dettactic.LookupReply{}, nil
		})
	})
	wrote := make(chan error, 1)
	go func() { wrote <- put(context.Background(), c, "w1") }()
	<-rec.held
	var reply dettactic.LookupReply
	if err := c.Call(context.Background(), dettactic.Service, "lookup", dettactic.LookupArgs{CT: []byte("tk")}, &reply); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if err := c.Call(context.Background(), "unknown", "method", nil, nil); err == nil {
		t.Fatal("a method without a codec succeeded")
	}
	release()
	if err := <-wrote; err != nil {
		t.Fatalf("put: %v", err)
	}
	if s := c.Stats(); s.SubCalls != 1 || s.Flushes != 1 {
		t.Fatalf("reads should pass through: %+v", s)
	}
	if frames := rec.names(); len(frames) != 3 || frames[1] != dettactic.Service+".lookup" || frames[2] != "unknown.method" {
		t.Fatalf("frames: %v", frames)
	}
}

// TestDisabled routes everything straight through.
func TestDisabled(t *testing.T) {
	var r recorder
	c, rec := testConn(t, Options{Disabled: true}, r.register)
	if err := put(context.Background(), c, "d1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	if s := c.Stats(); s.SubCalls != 0 || s.Flushes != 0 {
		t.Fatalf("disabled conn must not flush: %+v", s)
	}
	if frames := rec.names(); len(frames) != 1 || frames[0] != "doc.put" {
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
// is flushed as a write, every other method passes straight through. On
// an idle shard both reach the shard with their caller's own arguments.
func TestClassification(t *testing.T) {
	under := &argsConn{}
	c := New(under, Options{})
	defer c.Close()
	flushed := map[string]bool{}
	for _, name := range transport.RegisteredWireMethods() {
		codec := transport.LookupCodec(name)
		service, method, _ := strings.Cut(name, ".")
		args := codec.NewArgs()
		before := c.Stats()
		if err := c.Call(context.Background(), service, method, args, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sub := c.Stats().SubCalls - before.SubCalls
		if got := under.args[len(under.args)-1]; got != args {
			t.Errorf("%s reached the shard with %T, not its caller's args", name, got)
		}
		if write := codec.NewReply == nil; write != (sub == 1) {
			t.Errorf("%s: has no reply = %v, but flushed %d sub-calls", name, write, sub)
		}
		flushed[name] = sub == 1
	}
	for name, want := range map[string]bool{
		"doc.put": true, "doc.delete": true, "biex.insert": true, "agg.setup": true, "sophos.setup": true,
		"doc.get": false, "doc.getmany": false, "det.lookup": false, "biex.search": false, "admin.stats": false,
	} {
		if got, ok := flushed[name]; !ok || got != want {
			t.Errorf("%s: flushed = %v (registered %v), want %v", name, got, ok, want)
		}
	}
}

// coalesceVar decodes the "datablinder_coalesce" expvar.
func coalesceVar(t *testing.T) Stats {
	t.Helper()
	var s Stats
	if err := json.Unmarshal([]byte(expvar.Get("datablinder_coalesce").String()), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAggregate: the "datablinder_coalesce" expvar sums live conns and
// drops closed ones.
func TestAggregate(t *testing.T) {
	before := coalesceVar(t)
	var r recorder
	c, _ := testConn(t, Options{}, r.register)
	if err := put(context.Background(), c, "d1"); err != nil {
		t.Fatalf("put: %v", err)
	}
	after := coalesceVar(t)
	if after.SubCalls-before.SubCalls != 1 || after.Flushes-before.Flushes != 1 {
		t.Fatalf("aggregate did not pick up the conn: before %+v after %+v", before, after)
	}
	c.Close()
	if closed := coalesceVar(t); closed.Flushes != before.Flushes {
		t.Fatalf("aggregate still counts a closed conn: before %+v after close %+v", before, closed)
	}
}
