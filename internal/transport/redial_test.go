package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablinder/internal/wirefmt"
)

// fakePeer is the server half of one socket in the hands of a test: it has
// answered the client's hello and reads and writes real protocol frames,
// but decides for itself when to answer and when to hang up.
type fakePeer struct {
	conn  net.Conn
	br    *bufio.Reader
	table *wireTable
}

// fakeServer listens on a loopback port and hands every socket that
// completes the hello, with its 1-based ordinal, to serve on a goroutine of
// its own. The socket closes when serve returns; the listener closes with
// the test (or earlier, through the returned net.Listener).
func fakeServer(t *testing.T, serve func(n int, p *fakePeer)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for n := 1; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				table, err := acceptHello(conn, br)
				if err != nil {
					return
				}
				serve(n, &fakePeer{conn: conn, br: br, table: table})
			}(n)
		}
	}()
	return ln
}

// readCall reads one request frame.
func (p *fakePeer) readCall() (id uint64, call parsedCall, err error) {
	body, err := readWireFrame(p.br)
	if err != nil {
		return 0, call, err
	}
	r := wirefmt.NewReader(body)
	if kind := r.Byte(); kind != wireKindReq {
		return 0, call, fmt.Errorf("frame kind 0x%02x, want a request", kind)
	}
	id = r.Uvarint()
	if call, err = parseCall(r, p.table); err != nil {
		return 0, call, err
	}
	return id, call, r.Finish()
}

// respond writes the response frame for id; result appends its result
// section.
func (p *fakePeer) respond(id uint64, result func(b []byte) []byte) error {
	buf := append(newWireFrameBuf(), wireKindResp)
	return writeWireFrame(p.conn, result(binary.AppendUvarint(buf, id)))
}

// echo answers call with its own payload.
func (p *fakePeer) echo(id uint64, call parsedCall) error {
	return p.respond(id, func(b []byte) []byte { return appendResultOK(b, call.payload) })
}

// TestCallReplaysOnceAfterMidFlightDeath kills the server side of the
// socket after the request frame is already written but before any reply,
// with a healthy server behind the same address for the redial. The call
// must succeed transparently: the client redials the slot and replays
// exactly the failed call.
func TestCallReplaysOnceAfterMidFlightDeath(t *testing.T) {
	served := make(chan int, 4)
	ok, err := appendArgs(nil, registryTable(), "svc.echo", tmsg{S: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	ln := fakeServer(t, func(n int, p *fakePeer) {
		id, _, err := p.readCall()
		if err != nil {
			return
		}
		served <- n
		if n == 1 {
			return // a crash with the call in flight
		}
		p.respond(id, func(b []byte) []byte { return appendResultOK(b, ok) })
		p.readCall() // hold the socket open until the client is done with it
	})

	c, err := Dial(ln.Addr().String(), DialOptions{PoolSize: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var reply tmsg
	if err := c.Call(context.Background(), "svc", "echo", tmsg{A: 1}, &reply); err != nil {
		t.Fatalf("call across mid-flight socket death: %v", err)
	}
	if reply.S != "ok" {
		t.Fatal("reply not decoded after replay")
	}
	if got := len(served); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (original + one replay)", got)
	}
}

// TestCallSurfacesOriginalErrorWhenRedialFails tears the server down
// entirely after the request is in flight: the replay's redial cannot
// connect, and the caller must see the original socket failure, not a
// dial error.
func TestCallSurfacesOriginalErrorWhenRedialFails(t *testing.T) {
	inFlight := make(chan struct{})
	kill := make(chan struct{})
	ln := fakeServer(t, func(n int, p *fakePeer) {
		if _, _, err := p.readCall(); err == nil {
			close(inFlight)
		}
		<-kill
	})

	c, err := Dial(ln.Addr().String(), DialOptions{PoolSize: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		done <- c.Call(context.Background(), "svc", "m", nil, nil)
	}()
	<-inFlight
	ln.Close() // no redial target
	close(kill)

	err = <-done
	if err == nil {
		t.Fatal("call must fail when both the socket and the redial die")
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		t.Fatalf("caller saw the replay's dial error, want the original socket failure: %v", err)
	}
}

// batchEchoPeer serves batches on a fakePeer through the real executor:
// echo.id returns its "i" argument and records the order it ran in.
type batchEchoPeer struct {
	mux *Mux
	mu  sync.Mutex
	ran []int
}

func newBatchEchoPeer() *batchEchoPeer {
	b := &batchEchoPeer{mux: NewMux()}
	handle(b.mux, "echo.id", func(_ context.Context, a *tmsg) (any, error) {
		b.mu.Lock()
		b.ran = append(b.ran, int(a.A))
		b.mu.Unlock()
		return tmsg{A: a.A}, nil
	})
	return b
}

func (b *batchEchoPeer) exec(p *fakePeer, id uint64, call parsedCall) error {
	return p.respond(id, func(buf []byte) []byte {
		return wireExec(context.Background(), b.mux, p.table, buf, call)
	})
}

func echoBatch(n int) []BatchCall {
	calls := make([]BatchCall, n)
	for i := range calls {
		calls[i] = BatchCall{Service: "echo", Method: "id", Args: tmsg{A: int64(i)}}
	}
	return calls
}

// TestBatchReplayedOnceAfterMidFlightDeath: a CallBatch in flight when its
// socket dies takes the same redial-and-replay as a single call — the
// batch frame is resent exactly once, its sub-calls execute once, and the
// results come back in call order.
func TestBatchReplayedOnceAfterMidFlightDeath(t *testing.T) {
	peer := newBatchEchoPeer()
	var frames atomic.Int64
	ln := fakeServer(t, func(n int, p *fakePeer) {
		for {
			id, call, err := p.readCall()
			if err != nil {
				return
			}
			if call.name != batchName {
				t.Errorf("socket %d: call %s, want one batch frame", n, call.name)
			}
			frames.Add(1)
			if n == 1 {
				return // the socket dies with the batch in flight
			}
			if err := peer.exec(p, id, call); err != nil {
				return
			}
		}
	})

	c, err := Dial(ln.Addr().String(), DialOptions{PoolSize: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 5
	results, err := CallBatch(context.Background(), c, echoBatch(n))
	if err != nil {
		t.Fatalf("batch across mid-flight socket death: %v", err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		var got tmsg
		if err := r.Decode(&got); err != nil || got.A != int64(i) {
			t.Fatalf("result %d = %d, %v; results must come back in call order", i, got.A, err)
		}
	}
	if got := frames.Load(); got != 2 {
		t.Fatalf("server saw %d batch frames, want 2 (original + one replay)", got)
	}
	peer.mu.Lock()
	defer peer.mu.Unlock()
	if fmt.Sprint(peer.ran) != "[0 1 2 3 4]" {
		t.Fatalf("sub-calls ran as %v, want each once, in order", peer.ran)
	}
}

// TestBatchReplayNotAttemptedAfterContextExpiry: a batch whose context
// ended while it was in flight may still be executing server-side; when
// its socket then dies it must not be resent.
func TestBatchReplayNotAttemptedAfterContextExpiry(t *testing.T) {
	var frames atomic.Int64
	expired := make(chan struct{})
	ln := fakeServer(t, func(n int, p *fakePeer) {
		if _, _, err := p.readCall(); err != nil {
			return
		}
		frames.Add(1)
		<-expired // then hang up on the expired call
	})

	c, err := Dial(ln.Addr().String(), DialOptions{PoolSize: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = CallBatch(ctx, c, echoBatch(3))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CallBatch error = %v, want the context's deadline", err)
	}
	close(expired)
	// Give a wrongly attempted replay time to redial and land.
	time.Sleep(200 * time.Millisecond)
	if got := frames.Load(); got != 1 {
		t.Fatalf("server saw %d batch frames, want 1: an expired batch must not be replayed", got)
	}
}

// TestClientSurvivesServerRestart: a cloud node restart (new listener on
// the same address) must not permanently break a pooled client: calls fail
// while the server is down and succeed again after reconnection.
func TestClientSurvivesServerRestart(t *testing.T) {
	mux := testMux()
	srv := NewServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr, DialOptions{PoolSize: 1, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	var reply tmsg
	if err := client.Call(ctx, "test", "echo", tmsg{S: "before"}, &reply); err != nil {
		t.Fatalf("call before restart: %v", err)
	}
	srv.Close()

	// While down: calls fail (possibly several, as the pool reconnects).
	sawFailure := false
	for i := 0; i < 3; i++ {
		if err := client.Call(ctx, "test", "echo", tmsg{S: "down"}, &reply); err != nil {
			sawFailure = true
			break
		}
	}
	if !sawFailure {
		t.Fatal("no failure while server down")
	}

	// Restart on the same address.
	srv2 := NewServer(mux)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("restart listen: %v", err)
	}
	defer srv2.Close()

	// The client reconnects lazily: allow a few attempts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := client.Call(ctx, "test", "echo", tmsg{S: "after"}, &reply)
		if err == nil {
			if reply.S != "after" {
				t.Fatalf("reply = %q", reply.S)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never recovered: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
