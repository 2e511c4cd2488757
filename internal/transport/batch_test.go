package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// chunkCountingConn counts the frames CallBatch ships.
type chunkCountingConn struct {
	Conn
	mu     sync.Mutex
	frames int
}

func (c *chunkCountingConn) Call(ctx context.Context, service, method string, args, reply any) error {
	c.mu.Lock()
	c.frames++
	c.mu.Unlock()
	return c.Conn.Call(ctx, service, method, args, reply)
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

// TestCallBatchChunking: a batch whose encoded sub-requests exceed the
// frame-pool cap splits into several sequential frames, preserving
// sub-call order and per-call results.
func TestCallBatchChunking(t *testing.T) {
	mux, order := echoMux(t)
	conn := &chunkCountingConn{Conn: NewLoopback(mux)}

	// ~2 KiB per sub-call; 60 of them (~130 KiB with overhead) must span
	// at least three 56 KiB chunks.
	pad := strings.Repeat("x", 2048)
	const n = 60
	calls := make([]BatchCall, n)
	for i := range calls {
		calls[i] = BatchCall{Service: "echo", Method: "id", Args: tmsg{A: int64(i), S: pad}}
	}
	results, err := CallBatch(context.Background(), conn, calls)
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
	if conn.frames < 3 {
		t.Fatalf("oversized batch shipped in %d frames, want >= 3", conn.frames)
	}
}

// TestCallBatchSingleOversized: one sub-call larger than the chunk cap
// still ships, alone in its own frame.
func TestCallBatchSingleOversized(t *testing.T) {
	mux, _ := echoMux(t)
	conn := &chunkCountingConn{Conn: NewLoopback(mux)}
	pad := strings.Repeat("x", maxBatchChunkBytes+1024)
	results, err := CallBatch(context.Background(), conn, []BatchCall{
		{Service: "echo", Method: "id", Args: tmsg{A: 7, S: pad}},
		{Service: "echo", Method: "id", Args: tmsg{A: 8}},
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
	if conn.frames != 2 {
		t.Fatalf("want the oversized sub-call in its own frame (2 total), got %d", conn.frames)
	}
}

// TestCallBatchChunkedErrors: per-call failures in later chunks land on
// the right result index.
func TestCallBatchChunkedErrors(t *testing.T) {
	mux, _ := echoMux(t)
	conn := &chunkCountingConn{Conn: NewLoopback(mux)}
	pad := strings.Repeat("x", 2048)
	const n = 40
	calls := make([]BatchCall, n)
	for i := range calls {
		arg := i
		if i == n-1 {
			arg = -1 // the handler rejects -1
		}
		calls[i] = BatchCall{Service: "echo", Method: "id", Args: tmsg{A: int64(arg), S: pad}}
	}
	results, err := CallBatch(context.Background(), conn, calls)
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
	if conn.frames < 2 {
		t.Fatalf("batch should have chunked, got %d frames", conn.frames)
	}
}
