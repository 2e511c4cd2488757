package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sleepMux serves "slow.sleep" which sleeps for the requested duration
// (milliseconds) and echoes a tag, plus the echo/add handlers of testMux.
func sleepMux() *Mux {
	mux := testMux()
	handle(mux, "slow.sleep", func(ctx context.Context, in *tmsg) (any, error) {
		select {
		case <-time.After(time.Duration(in.A) * time.Millisecond):
			return tmsg{S: in.S}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	return mux
}

// sleep is a slow.sleep argument: sleep ms, then echo tag.
func sleep(ms int64, tag string) tmsg { return tmsg{A: ms, S: tag} }

// TestPipelinedSingleSocket is the acceptance check for the multiplexed
// client: N concurrent callers over PoolSize=1 must overlap on the wire,
// not serialize. 8 callers × 150ms serialized would be 1.2s; pipelined
// they complete in roughly one sleep.
func TestPipelinedSingleSocket(t *testing.T) {
	srv := NewServer(sleepMux())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const callers = 8
	const sleepMs = 150
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply tmsg
			tag := fmt.Sprintf("c%d", i)
			if err := client.Call(context.Background(), "slow", "sleep", sleep(sleepMs, tag), &reply); err != nil {
				errs <- err
				return
			}
			if reply.S != tag {
				errs <- fmt.Errorf("cross-wired reply: got %q want %q", reply.S, tag)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Allow generous scheduling slack; the serialized floor is 1.2s.
	if elapsed > time.Duration(callers)*sleepMs*time.Millisecond/2 {
		t.Fatalf("%d callers over one socket took %v — calls are serializing", callers, elapsed)
	}
}

// TestOutOfOrderResponses verifies response/request correlation: a fast
// call issued after a slow one on the same socket returns first.
func TestOutOfOrderResponses(t *testing.T) {
	srv := NewServer(sleepMux())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var slowDone, fastDone atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var reply tmsg
		if err := client.Call(context.Background(), "slow", "sleep", sleep(400, "slow"), &reply); err != nil || reply.S != "slow" {
			t.Errorf("slow call: %v / %q", err, reply.S)
		}
		slowDone.Store(time.Now().UnixNano())
	}()
	time.Sleep(50 * time.Millisecond) // ensure the slow request is on the wire first
	go func() {
		defer wg.Done()
		var reply tmsg
		if err := client.Call(context.Background(), "slow", "sleep", sleep(10, "fast"), &reply); err != nil || reply.S != "fast" {
			t.Errorf("fast call: %v / %q", err, reply.S)
		}
		fastDone.Store(time.Now().UnixNano())
	}()
	wg.Wait()
	if fastDone.Load() >= slowDone.Load() {
		t.Fatal("fast call completed after slow call — responses are not out-of-order")
	}
}

// TestManyGoroutinesOneSocket hammers a single socket from many goroutines
// and checks every reply is correlated to its own request (run with -race).
func TestManyGoroutinesOneSocket(t *testing.T) {
	srv := NewServer(testMux())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var reply tmsg
				if err := client.Call(context.Background(), "test", "add",
					tmsg{A: int64(g * 1000), B: int64(i)}, &reply); err != nil {
					errs <- err
					return
				}
				if reply.A != int64(g*1000+i) {
					errs <- fmt.Errorf("goroutine %d call %d: sum=%d", g, i, reply.A)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMidCallSocketKill kills the socket server-side while calls are in
// flight: every pending call must drain promptly and succeed via the
// client's transparent one-shot redial-and-replay (the second connection
// serves echo), and later calls keep working on the redialed socket.
func TestMidCallSocketKill(t *testing.T) {
	// The first connection is dropped after one request frame arrives
	// (mid-call kill); later connections serve echo.
	ln := fakeServer(t, func(n int, p *fakePeer) {
		for {
			id, call, err := p.readCall()
			if err != nil || n == 1 {
				return // n == 1: kill the socket with the call pending
			}
			if p.echo(id, call) != nil {
				return
			}
		}
	})

	client, err := Dial(ln.Addr().String(), DialOptions{PoolSize: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Several pending calls, all on the doomed socket.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			err := client.Call(context.Background(), "x", "y", tmsg{A: 1}, nil)
			if err != nil {
				t.Errorf("call on killed socket not replayed: %v", err)
			}
			if time.Since(start) > 3*time.Second {
				t.Errorf("pending call drained too slowly: %v", time.Since(start))
			}
		}()
	}
	wg.Wait()

	// The next call redials and succeeds.
	var reply tmsg
	if err := client.Call(context.Background(), "x", "y", tmsg{A: 7}, &reply); err != nil {
		t.Fatalf("call after redial: %v", err)
	}
	if reply.A != 7 {
		t.Fatalf("reply = %v", reply)
	}
}

// TestPendingCallContextCancel cancels one in-flight call; its sibling on
// the same socket and later calls are unaffected, and the orphaned
// response is discarded silently.
func TestPendingCallContextCancel(t *testing.T) {
	srv := NewServer(sleepMux())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- client.Call(ctx, "slow", "sleep", sleep(2000, "a"), nil)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call returned %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled call did not return")
	}

	// The socket is still healthy for other traffic — including while the
	// orphaned response from the cancelled call is still pending server-side.
	var reply tmsg
	if err := client.Call(context.Background(), "test", "echo", tmsg{S: "after-cancel"}, &reply); err != nil {
		t.Fatalf("call after cancel: %v", err)
	}
	if reply.S != "after-cancel" {
		t.Fatalf("reply = %q", reply.S)
	}
}

// TestServerConcurrentDispatch verifies the server executes pipelined
// requests from one connection concurrently (bounded by the semaphore).
func TestServerConcurrentDispatch(t *testing.T) {
	var cur, peak int64
	mux := NewMux()
	handle(mux, "probe.run", func(context.Context, *tmsg) (any, error) {
		c := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return nil, nil
	})
	srv := NewServer(mux)
	srv.MaxInFlight = 4
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := client.Call(context.Background(), "probe", "run", nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := atomic.LoadInt64(&peak); p < 2 {
		t.Fatalf("peak concurrent handlers = %d, want >= 2 (requests are serializing)", p)
	}
	if p := atomic.LoadInt64(&peak); p > 4 {
		t.Fatalf("peak concurrent handlers = %d exceeds MaxInFlight=4", p)
	}
}

// TestBatchCall exercises the built-in batch executor over both transports,
// including per-sub-call error isolation and code propagation.
func TestBatchCall(t *testing.T) {
	mux := testMux()
	handle(mux, "test.coded", func(context.Context, *tmsg) (any, error) {
		return nil, WithCode(errors.New("thing is gone"), CodeNotFound)
	})

	srv := NewServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	lb := NewLoopback(mux)
	defer lb.Close()

	for name, conn := range map[string]Conn{"tcp": tcp, "loopback": lb} {
		t.Run(name, func(t *testing.T) {
			results, err := CallBatch(context.Background(), conn, []BatchCall{
				{Service: "test", Method: "echo", Args: tmsg{S: "one"}},
				{Service: "test", Method: "coded"},
				{Service: "test", Method: "add", Args: tmsg{A: 2, B: 3}},
			})
			if err != nil {
				t.Fatalf("CallBatch: %v", err)
			}
			if len(results) != 3 {
				t.Fatalf("results = %d", len(results))
			}
			var e tmsg
			if err := results[0].Decode(&e); err != nil || e.S != "one" {
				t.Fatalf("sub 0: %v / %q", err, e.S)
			}
			if !IsNotFoundError(results[1].Err) {
				t.Fatalf("sub 1 error = %v, want coded not_found", results[1].Err)
			}
			var sum tmsg
			if err := results[2].Decode(&sum); err != nil || sum.A != 5 {
				t.Fatalf("sub 2: %v / %d", err, sum.A)
			}
		})
	}
}

// TestBatchRejectsNesting: a batch containing a batch fails that sub-call.
func TestBatchRejectsNesting(t *testing.T) {
	lb := NewLoopback(testMux())
	defer lb.Close()
	results, err := CallBatch(context.Background(), lb, []BatchCall{
		{Service: BatchService, Method: BatchMethod, Args: []BatchCall{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Fatal("nested batch accepted")
	}
}

// TestErrorCodes covers the coded-error plumbing end to end.
func TestErrorCodes(t *testing.T) {
	if got := ErrorCode(WithCode(errors.New("x"), CodeAlreadyExists)); got != CodeAlreadyExists {
		t.Fatalf("ErrorCode = %q", got)
	}
	if got := ErrorCode(fmt.Errorf("wrap: %w", WithCode(errors.New("x"), CodeNotFound))); got != CodeNotFound {
		t.Fatalf("ErrorCode through wrap = %q", got)
	}
	if got := ErrorCode(errors.New("plain")); got != "" {
		t.Fatalf("ErrorCode(plain) = %q", got)
	}
	if WithCode(nil, CodeNotFound) != nil {
		t.Fatal("WithCode(nil) != nil")
	}

	// Coded remote errors are authoritative: a message that *mentions*
	// "not found" but carries a different code must not match.
	err := &RemoteError{Code: CodeAlreadyExists, Msg: "replica not found something already exists"}
	if IsNotFoundError(err) {
		t.Fatal("IsNotFoundError matched a coded already_exists error")
	}
	if !IsAlreadyExistsError(err) {
		t.Fatal("IsAlreadyExistsError missed a coded error")
	}
	// An uncoded remote error is not classified by what its message says.
	if IsNotFoundError(&RemoteError{Msg: "not found"}) {
		t.Fatal("IsNotFoundError matched an uncoded error on its message")
	}
	if IsAlreadyExistsError(&RemoteError{Msg: "already exists"}) {
		t.Fatal("IsAlreadyExistsError matched an uncoded error on its message")
	}
	if IsNotFoundError(errors.New("not a remote error: not found")) {
		t.Fatal("IsNotFoundError matched a local error")
	}
}

// TestWriteDeadlineDoesNotPoisonIdleSocket: a long idle period between
// calls must not trip the write deadline bookkeeping.
func TestIdleSocketReuse(t *testing.T) {
	srv := NewServer(testMux())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 1, Timeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var reply tmsg
	if err := client.Call(context.Background(), "test", "echo", tmsg{S: "a"}, &reply); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond) // longer than the call timeout
	if err := client.Call(context.Background(), "test", "echo", tmsg{S: "b"}, &reply); err != nil {
		t.Fatalf("call after idle: %v", err)
	}
}

// TestOversizedFrameFailsFast: an oversized request is rejected client-side
// without poisoning the socket.
func TestOversizedArgs(t *testing.T) {
	srv := NewServer(testMux())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr, DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	big := make([]byte, MaxFrameSize+1024)
	err = client.Call(context.Background(), "test", "echo", tmsg{S: string(big)}, nil)
	if err == nil {
		t.Fatal("oversized args accepted")
	}
	var reply tmsg
	if err := client.Call(context.Background(), "test", "echo", tmsg{S: "ok"}, &reply); err != nil {
		t.Fatalf("call after oversized args: %v", err)
	}
}
