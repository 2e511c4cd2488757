package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveMux serves mux on a loopback port through the real batch executor.
// The peer frames by hand and bills no wire counters, so WireStats deltas
// count the client's frames alone.
func serveMux(t *testing.T, mux *Mux) string {
	t.Helper()
	ln := fakeServer(t, func(_ int, p *fakePeer) {
		for {
			id, call, err := p.readCall()
			if err != nil {
				return
			}
			if p.respond(id, func(b []byte) []byte { return wireExec(context.Background(), mux, b, call) }) != nil {
				return
			}
		}
	})
	return ln.Addr().String()
}

// batchFrames runs fn and returns how many _batch.exec request frames the
// client wrote meanwhile.
func batchFrames(fn func()) uint64 {
	before := WireStats().Methods[batchName].FramesOut
	fn()
	return WireStats().Methods[batchName].FramesOut - before
}

// dialMux dials serveMux(mux) over one socket.
func dialMux(t *testing.T, mux *Mux) *TCPClient {
	t.Helper()
	c, err := Dial(serveMux(t, mux), DialOptions{PoolSize: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// echoMux registers an echo.id handler returning its argument's A (the S
// field pads the payload).
func echoMux(t *testing.T) (*Mux, *[]int) {
	t.Helper()
	mux := NewMux()
	var order []int
	var mu sync.Mutex
	handle(mux, "echo.id", func(_ context.Context, a *tmsg) (any, error) {
		mu.Lock()
		order = append(order, int(a.A))
		mu.Unlock()
		if a.A == -1 {
			return nil, fmt.Errorf("rejected")
		}
		return tmsg{A: a.A}, nil
	})
	return mux, &order
}

// TestCallBatchChunking: a batch whose encoded sub-calls exceed the
// frame-pool cap splits into several sequential frames, preserving
// sub-call order and per-call results.
func TestCallBatchChunking(t *testing.T) {
	mux, order := echoMux(t)
	conn := dialMux(t, mux)

	// ~2 KiB per sub-call; 60 of them (~130 KiB with overhead) span three
	// 56 KiB frames.
	const n = 60
	var results []BatchResult
	var err error
	frames := batchFrames(func() {
		results, err = CallBatch(context.Background(), conn, echoBatch(n, strings.Repeat("x", 2048)))
	})
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		var got tmsg
		if err := r.Decode(&got); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if got.A != int64(i) {
			t.Fatalf("result %d decoded to %d", i, got.A)
		}
	}
	if len(*order) != n {
		t.Fatalf("handler ran %d times, want %d", len(*order), n)
	}
	for i, v := range *order {
		if v != i {
			t.Fatalf("handler order[%d] = %d; chunking must preserve order", i, v)
		}
	}
	if frames != 3 {
		t.Fatalf("oversized batch shipped in %d frames, want 3", frames)
	}
}

// TestCallBatchSingleOversized: one sub-call larger than the chunk cap
// still ships, alone in its own frame.
func TestCallBatchSingleOversized(t *testing.T) {
	mux, _ := echoMux(t)
	conn := dialMux(t, mux)
	pad := strings.Repeat("x", maxBatchChunkBytes+1024)
	var results []BatchResult
	var err error
	frames := batchFrames(func() {
		results, err = CallBatch(context.Background(), conn, []BatchCall{
			{Service: "echo", Method: "id", Args: tmsg{A: 7, S: pad}},
			{Service: "echo", Method: "id", Args: tmsg{A: 8}},
		})
	})
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	var got tmsg
	if err := results[0].Decode(&got); err != nil || got.A != 7 {
		t.Fatalf("oversized sub-call: got %d, %v", got.A, err)
	}
	if err := results[1].Decode(&got); err != nil || got.A != 8 {
		t.Fatalf("trailing sub-call: got %d, %v", got.A, err)
	}
	if frames != 2 {
		t.Fatalf("want the oversized sub-call in its own frame (2 total), got %d", frames)
	}
}

// TestCallBatchChunkedErrors: per-call failures in later chunks land on
// the right result index.
func TestCallBatchChunkedErrors(t *testing.T) {
	mux, _ := echoMux(t)
	conn := dialMux(t, mux)
	const n = 40
	calls := echoBatch(n, strings.Repeat("x", 2048))
	calls[n-1].Args = tmsg{A: -1} // the handler rejects -1
	var results []BatchResult
	var err error
	frames := batchFrames(func() { results, err = CallBatch(context.Background(), conn, calls) })
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	for i := 0; i < n-1; i++ {
		if results[i].Err != nil {
			t.Fatalf("result %d: unexpected error %v", i, results[i].Err)
		}
	}
	if results[n-1].Err == nil {
		t.Fatalf("rejected sub-call reported no error")
	}
	if frames != 2 {
		t.Fatalf("batch should have shipped in 2 frames, got %d", frames)
	}
}

// TestCallBatchAllocs pins the allocations of a 10-sub-call batch, over
// both transports: the sub-calls are encoded into the frame that carries
// them, with no payload, size or chunk list of their own.
func TestCallBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	addr, _ := startServer(t)
	tcp, err := Dial(addr, DialOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	calls := make([]BatchCall, 10)
	for i := range calls {
		calls[i] = BatchCall{Service: "test", Method: "add", Args: tmsg{A: int64(i), B: 1}}
	}
	for _, tc := range []struct {
		name    string
		conn    Conn
		ceiling float64
	}{
		// Measured on linux/amd64, go1.24; the parent's per-sub-call
		// pre-encoding cost 103 and 109.
		{"loopback", NewLoopback(testMux()), 50},
		{"tcp", tcp, 58}, // server side included: both ends share the process
	} {
		ctx := context.Background()
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := CallBatch(ctx, tc.conn, calls); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.ceiling {
			t.Errorf("%s: %v allocs per 10-sub-call batch, want at most %v", tc.name, allocs, tc.ceiling)
		}
	}
}
