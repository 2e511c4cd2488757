// Package coalesce implements the gateway's per-shard group commit: a
// transport.Conn wrapper that merges the writes concurrent callers send to
// one shard while an earlier write to it is still in flight.
//
// The rule is the one the WAL uses for fsync. A write to an idle shard
// marks it busy and leaves at once, on its caller's goroutine and context.
// A write that arrives while the shard is busy parks. When a flush returns,
// everything that parked meanwhile ships as one merged batch (on a
// goroutine of its own, since it carries many callers' work), each caller
// gets back its own slice of the results, and the loop repeats until
// nothing is parked; then the shard is idle again. A lone caller therefore
// pays nothing, while k callers streaming at one shard settle into one
// frame per round trip carrying all their sub-calls.
//
// Only writes are merged: a call is a write when its method's codec has no
// reply (it was built with transport.WriteCodec). Every other call goes
// straight to the shard connection. Ordering and failure semantics are
// those of a plain batch: a caller's calls stay contiguous and in order
// (the server's batch executor is sequential), a transport-level failure
// reaches every caller of the affected flush, and a sub-call's handler
// failure reaches only its own caller. A caller's write returns only once
// its flush is acknowledged, so a read issued after it sees it.
package coalesce

import (
	"context"
	"sync"
	"sync/atomic"

	"datablinder/internal/obs"
	"datablinder/internal/transport"
)

// Options configures a Conn. The zero value enables coalescing.
type Options struct {
	// Disabled routes every call straight through to the underlying
	// connection. A caller that composes its own coalescer chain under the
	// engine (the traced harness in benchmark/cmd/dblayers) sets it so the
	// engine does not stack a second one on top; see DESIGN.md §6.
	Disabled bool
}

// isWrite reports whether service.method is merged: its codec has no
// reply. Unknown methods and the batch executor pass through.
func isWrite(service, method string) bool {
	codec := transport.LookupCodec(service + "." + method)
	return codec != nil && codec.NewReply == nil
}

// waiter is one caller's parked calls and, once done closes, their
// outcome.
type waiter struct {
	calls []transport.BatchCall
	done  chan struct{}
	res   []transport.BatchResult
	err   error
}

// Conn wraps one shard's connection with group commit. It implements
// transport.Conn and transport.BatchCaller, so a write set's per-shard
// batch merges like any other write.
type Conn struct {
	under    transport.Conn
	disabled bool

	// The counters of Stats: flushes by kind, write sub-calls sent, and the
	// sub-calls that shared their flush with another caller's.
	direct, merged      atomic.Uint64
	subCalls, coalesced atomic.Uint64

	mu     sync.Mutex
	idle   sync.Cond // broadcast when busy clears
	busy   bool      // a flush is in flight
	parked []*waiter // writes waiting for the next merged flush
}

// New wraps under. The Conn counts in the "datablinder_coalesce" expvar
// until it is closed.
func New(under transport.Conn, opts Options) *Conn {
	c := &Conn{under: under, disabled: opts.Disabled}
	c.idle.L = &c.mu
	live.Join(c)
	return c
}

// Call implements transport.Conn. A write goes out at once if the shard is
// idle and parks for the next merged flush otherwise; everything else
// passes through.
func (c *Conn) Call(ctx context.Context, service, method string, args, reply any) error {
	if c.disabled || !isWrite(service, method) {
		return c.under.Call(ctx, service, method, args, reply)
	}
	c.mu.Lock()
	if !c.busy {
		c.busy = true
		c.mu.Unlock()
		c.flushed(&c.direct, 1, false)
		defer c.release()
		return c.under.Call(ctx, service, method, args, reply)
	}
	w := c.parkLocked([]transport.BatchCall{{Service: service, Method: method, Args: args}})
	c.mu.Unlock()
	res, err := w.wait(ctx)
	if err != nil {
		return err
	}
	return res[0].Decode(reply)
}

// CallBatch implements transport.BatchCaller: a caller-built batch (a
// write set's share for this shard) goes out as one transport.CallBatch if
// the shard is idle, and otherwise parks whole, so its sub-calls stay
// contiguous and in order inside the merged flush. Transport-level flush
// failures are reported as the error, sub-call failures per result.
func (c *Conn) CallBatch(ctx context.Context, calls []transport.BatchCall) ([]transport.BatchResult, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	if c.disabled {
		return transport.CallBatch(ctx, c.under, calls)
	}
	c.mu.Lock()
	if !c.busy {
		c.busy = true
		c.mu.Unlock()
		c.flushed(&c.direct, len(calls), false)
		defer c.release()
		return transport.CallBatch(ctx, c.under, calls)
	}
	w := c.parkLocked(calls)
	c.mu.Unlock()
	return w.wait(ctx)
}

// Close waits until the shard is idle and closes the underlying
// connection.
func (c *Conn) Close() error {
	c.Drain()
	live.Leave(c)
	return c.under.Close()
}

// Drain waits until no flush is in flight, so writes whose callers gave up
// waiting have still shipped. The underlying connection stays open.
func (c *Conn) Drain() {
	c.mu.Lock()
	for c.busy {
		c.idle.Wait()
	}
	c.mu.Unlock()
}

func (c *Conn) parkLocked(calls []transport.BatchCall) *waiter {
	w := &waiter{calls: calls, done: make(chan struct{})}
	c.parked = append(c.parked, w)
	return w
}

// wait parks the caller until its merged flush returns or ctx ends. A
// caller that gives up stops waiting; its calls still ship with the flush.
func (w *waiter) wait(ctx context.Context) ([]transport.BatchResult, error) {
	select {
	case <-w.done:
		return w.res, w.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// next ends a flush: it takes everything parked meanwhile or, when nothing
// is, marks the shard idle.
func (c *Conn) next() []*waiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	batch := c.parked
	c.parked = nil
	if len(batch) == 0 {
		c.busy = false
		c.idle.Broadcast()
		return nil
	}
	return batch
}

// release ends a direct flush. Writes that parked behind it ship on a
// goroutine of their own, so the direct caller returns at once.
func (c *Conn) release() {
	if batch := c.next(); batch != nil {
		go c.flushParked(batch)
	}
}

// flushParked ships merged batches until no write is left parked. The
// flushes run on context.Background(): a batch carries many callers'
// work, and one caller giving up must not fail the others.
func (c *Conn) flushParked(batch []*waiter) {
	for ; batch != nil; batch = c.next() {
		var calls []transport.BatchCall
		for _, w := range batch {
			calls = append(calls, w.calls...)
		}
		c.flushed(&c.merged, len(calls), len(batch) > 1)
		results, err := transport.CallBatch(context.Background(), c.under, calls)
		for _, w := range batch {
			if err != nil {
				w.err = err
			} else {
				n := len(w.calls)
				w.res, results = results[:n:n], results[n:]
			}
			close(w.done)
		}
	}
}

// flushed counts one flush of n write sub-calls under its kind, c.direct
// or c.merged; shared says it carried more than one caller's writes.
func (c *Conn) flushed(kind *atomic.Uint64, n int, shared bool) {
	kind.Add(1)
	c.subCalls.Add(uint64(n))
	if shared {
		c.coalesced.Add(uint64(n))
	}
}

// live is every open Conn, published as expvar "datablinder_coalesce" on
// the gateway's -pprof listener.
var live = obs.NewSet("datablinder_coalesce", statsOf)

// Flush kinds (keys of Stats.FlushByTrigger).
const (
	flushDirect = "direct" // a write to an idle shard, sent by its caller
	flushMerged = "merged" // the writes parked behind a flush
)

// Stats is a point-in-time snapshot of one Conn, or of every open Conn in
// the process (expvar "datablinder_coalesce").
type Stats struct {
	// DedupHits is always 0: reads are not merged, so none joins another.
	// Only benchmark/cmd/dblayers reads it; the benchmark-only port that
	// stops reading it deletes it.
	DedupHits uint64 `json:"dedup_hits"`
	// Flushes is the total flush count; FlushByTrigger splits it into
	// "direct" and "merged".
	Flushes        uint64            `json:"flushes"`
	FlushByTrigger map[string]uint64 `json:"flush_by_trigger"`
	// SubCalls counts write sub-calls sent; CoalescedSubCalls the subset
	// that shared a merged flush with another caller's (the merge rate).
	SubCalls          uint64 `json:"sub_calls"`
	CoalescedSubCalls uint64 `json:"coalesced_sub_calls"`
}

// Stats snapshots the connection's counters.
func (c *Conn) Stats() Stats { return statsOf(c) }

// statsOf sums the counters of conns into one snapshot.
func statsOf(conns ...*Conn) Stats {
	var direct, merged uint64
	var s Stats
	for _, c := range conns {
		direct += c.direct.Load()
		merged += c.merged.Load()
		s.SubCalls += c.subCalls.Load()
		s.CoalescedSubCalls += c.coalesced.Load()
	}
	s.Flushes = direct + merged
	s.FlushByTrigger = map[string]uint64{flushDirect: direct, flushMerged: merged}
	return s
}

// Merge folds other into s (FlushByTrigger summed key-wise).
func (s *Stats) Merge(other Stats) {
	s.DedupHits += other.DedupHits
	s.Flushes += other.Flushes
	s.SubCalls += other.SubCalls
	s.CoalescedSubCalls += other.CoalescedSubCalls
	if s.FlushByTrigger == nil {
		s.FlushByTrigger = make(map[string]uint64)
	}
	for k, v := range other.FlushByTrigger {
		s.FlushByTrigger[k] += v
	}
}

var (
	_ transport.Conn        = (*Conn)(nil)
	_ transport.BatchCaller = (*Conn)(nil)
)
