// Package coalesce implements the gateway's per-shard group-commit stage:
// a transport.Conn wrapper that merges in-flight writes from *all*
// concurrent callers into one mega-batch per shard connection, flushed on a
// size cap, a byte cap, a short window timer, a gather condition (every
// active caller has contributed), or explicit drain.
//
// The paper positions DataBlinder as middleware absorbing heavy multi-client
// traffic; at high concurrency the dominant cost of the sharded tier is not
// crypto but frames — every caller shipping its own small `_batch.exec`
// per shard. The coalescer turns k concurrent callers' writes into one
// frame per shard carrying k callers' sub-calls, with per-caller completion
// futures fanning each sub-result (or error) back to the originating
// request. Ordering and failure semantics are unchanged: sub-calls execute
// in enqueue order on the server (the batch executor is sequential), a
// transport-level failure reaches every caller of the affected flush, and a
// per-call handler failure reaches only its own caller — so the engine's
// compensation-by-supersession on partial shard failure works exactly as it
// does uncoalesced.
//
// Only writes are queued: a call is a write when its method's codec has no
// reply (it was built with transport.WriteCodec). Every other call goes
// straight to the shard connection. A caller's write returns only once its
// flush is acknowledged, so a read issued after it sees it.
//
// # Flush triggers
//
// "gather" is the interesting one: the conn tracks how many callers are
// currently inside a coalesced call (active) and how many of those have
// their sub-calls sitting in the queue (contributed). When everyone who
// could contribute has contributed, waiting any longer is pure latency —
// the batch flushes immediately. A single sequential caller therefore
// pays no window latency at all (its own enqueue satisfies the gather
// condition), while streaming callers naturally settle into one
// mega-batch per shard per round trip: callers waiting on an in-flight
// flush hold the gather condition open, and the moment their results land
// they re-enqueue and release the next batch. The window timer is the
// backstop for stragglers; the size and byte caps bound frame growth under
// the transport's frame-buffer pool limit.
package coalesce

import (
	"context"
	"sync"
	"time"

	"datablinder/internal/transport"
)

const (
	// defaultMaxCalls caps the sub-calls accumulated per flush.
	defaultMaxCalls = 128
	// defaultMaxBytes caps the accumulated payload bytes per flush, sized
	// so a full batch's encoded frame stays under the transport's pooled
	// frame-buffer limit (64 KiB) and keeps reusing pooled buffers.
	defaultMaxBytes = 48 << 10
	// defaultWindow is the straggler backstop: the longest an enqueued
	// sub-call waits for company before flushing anyway.
	defaultWindow = 200 * time.Microsecond
)

// Options configures a Conn. The zero value enables coalescing.
type Options struct {
	// Disabled routes every call straight through to the underlying
	// connection. A caller that composes its own coalescer chain under the
	// engine (the traced harness in benchmark/cmd/dblayers) sets it so the
	// engine does not stack a second one on top; see DESIGN.md §6.
	Disabled bool
}

// isWrite reports whether service.method is queued: its codec has no
// reply. Unknown methods and the batch executor pass through.
func isWrite(service, method string) bool {
	codec := transport.LookupCodec(service + "." + method)
	return codec != nil && codec.NewReply == nil
}

// entry is one caller's queued sub-call plus its completion future. The
// payload is pre-encoded with the underlying connection's wire codec at
// enqueue time (exact byte accounting, encode-once flushes); args rides
// beside it for wrappers that inspect sub-calls.
type entry struct {
	service, method string
	payload         []byte
	size            int // exact encoded sub-call size
	args            any

	taken bool // left the queue (flushed); guarded by Conn.mu
	done  chan struct{}
	res   transport.BatchResult // written before done closes, read-only after
}

// Conn wraps one shard's connection with the group-commit stage. It
// implements transport.Conn and transport.BatchCaller, so a write set's
// per-shard batch merges into the shared flush like any other sub-calls.
type Conn struct {
	under    transport.Conn
	disabled bool
	stats    counters

	// Flush caps and the window; fixed after New (tests lower them).
	maxCalls int
	maxBytes int
	window   time.Duration

	mu          sync.Mutex
	closed      bool
	pend        []*entry
	bytes       int
	active      int    // callers currently inside a coalesced call
	contributed int    // active callers whose sub-calls sit in pend
	gen         uint64 // queue generation; invalidates stale window timers
	timer       *time.Timer
}

// New wraps under. The Conn registers itself for package-level stats
// aggregation (the expvar endpoint); Close unregisters.
func New(under transport.Conn, opts Options) *Conn {
	c := &Conn{
		under: under, disabled: opts.Disabled,
		maxCalls: defaultMaxCalls, maxBytes: defaultMaxBytes, window: defaultWindow,
	}
	register(c)
	return c
}

// WireCodec exposes the underlying connection's codec so outer layers
// (batch chunking in particular) account the same wire sizes the flush
// will pay.
func (c *Conn) WireCodec() transport.WireCodec { return transport.ConnCodec(c.under) }

// Call implements transport.Conn. A write is queued as a one-call batch
// and the caller parks until its flush is acknowledged; everything else
// passes through.
func (c *Conn) Call(ctx context.Context, service, method string, args, reply any) error {
	if c.disabled || !isWrite(service, method) {
		c.stats.passthrough.Add(1)
		return c.under.Call(ctx, service, method, args, reply)
	}
	res, err := c.CallBatch(ctx, []transport.BatchCall{{Service: service, Method: method, Args: args}})
	if err != nil {
		return err
	}
	return res[0].Decode(reply)
}

// CallBatch implements transport.BatchCaller: a caller-built batch (a
// write set's share for this shard) splices its sub-calls into the shared
// queue instead of framing its own `_batch.exec`. Sub-call order within the
// batch is preserved (the queue is FIFO and flushes whole). Transport-level
// flush failures are reported per-result, which every CallBatch caller
// already handles.
func (c *Conn) CallBatch(ctx context.Context, calls []transport.BatchCall) ([]transport.BatchResult, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	if c.disabled {
		return transport.CallBatch(ctx, c.under, calls)
	}
	codec := transport.ConnCodec(c.under)
	entries := make([]*entry, len(calls))
	for i, call := range calls {
		p, err := codec.EncodeArgs(call.Service, call.Method, call.Args)
		if err != nil {
			return nil, err
		}
		entries[i] = &entry{
			service: call.Service, method: call.Method,
			payload: p, args: call.Args,
			size: codec.SubSize(call.Service, call.Method, len(p)),
			done: make(chan struct{}),
		}
	}
	c.enter()
	defer c.exit()
	if !c.enqueue(entries) {
		// Closed: fall through to the underlying conn, which reports it.
		return transport.CallBatch(ctx, c.under, calls)
	}
	if err := c.await(ctx, entries); err != nil {
		return nil, err
	}
	out := make([]transport.BatchResult, len(entries))
	for i, e := range entries {
		out[i] = e.res
	}
	return out, nil
}

// Close drains the queue and closes the underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	batch := c.takeLocked()
	c.mu.Unlock()
	if batch != nil {
		c.send(batch, trigDrain)
	}
	unregister(c)
	return c.under.Close()
}

// Drain flushes the queue and waits for the flush to complete. The
// underlying connection stays open; callers use it before teardown so no
// enqueued write is lost between "engine returned" and "process exited".
func (c *Conn) Drain() {
	c.mu.Lock()
	batch := c.takeLocked()
	c.mu.Unlock()
	if batch != nil {
		c.send(batch, trigDrain)
	}
}

// enter registers a caller for the gather trigger.
func (c *Conn) enter() {
	c.mu.Lock()
	c.active++
	c.mu.Unlock()
}

// exit deregisters a caller. If the departure satisfies the gather
// condition for the remaining callers (everyone left has contributed),
// the queue flushes without waiting for the window.
func (c *Conn) exit() {
	c.mu.Lock()
	c.active--
	var batch []*entry
	if c.gatherReadyLocked() {
		batch = c.takeLocked()
	}
	c.mu.Unlock()
	if batch != nil {
		go c.send(batch, trigGather)
	}
}

func (c *Conn) gatherReadyLocked() bool {
	return len(c.pend) > 0 && c.contributed >= c.active
}

// enqueue queues one caller's entries as consecutive sub-calls, marks the
// caller as having contributed, and flushes if a trigger fires. It returns
// false when the conn is closed.
func (c *Conn) enqueue(entries []*entry) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.stats.enqueued.Add(uint64(len(entries)))
	for _, e := range entries {
		c.pend = append(c.pend, e)
		c.bytes += e.size
	}
	c.contributed++
	if d := uint64(len(c.pend)); d > c.stats.maxDepth.Load() {
		c.stats.maxDepth.Store(d)
	}
	var trigger string
	switch {
	case len(c.pend) >= c.maxCalls:
		trigger = trigSize
	case c.bytes >= c.maxBytes:
		trigger = trigBytes
	case c.gatherReadyLocked():
		trigger = trigGather
	default:
		if c.timer == nil {
			gen := c.gen
			c.timer = time.AfterFunc(c.window, func() { c.fireWindow(gen) })
		}
		c.mu.Unlock()
		return true
	}
	batch := c.takeLocked()
	c.mu.Unlock()
	c.send(batch, trigger)
	return true
}

// takeLocked removes the whole queue, resetting contribution accounting
// and invalidating the pending window timer.
func (c *Conn) takeLocked() []*entry {
	if len(c.pend) == 0 {
		return nil
	}
	batch := c.pend
	c.pend = nil
	c.bytes = 0
	c.contributed = 0
	c.gen++
	for _, e := range batch {
		e.taken = true
	}
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

func (c *Conn) fireWindow(gen uint64) {
	c.mu.Lock()
	if c.gen != gen || len(c.pend) == 0 {
		c.mu.Unlock()
		return
	}
	batch := c.takeLocked()
	c.mu.Unlock()
	c.send(batch, trigWindow)
}

// await parks the caller until its entries complete or ctx ends. An
// abandoning caller withdraws its contribution so the gather trigger does
// not wait for it; its entries still flush (and are discarded) later.
func (c *Conn) await(ctx context.Context, entries []*entry) error {
	for _, e := range entries {
		select {
		case <-e.done:
		case <-ctx.Done():
			c.mu.Lock()
			if !entries[0].taken && c.contributed > 0 {
				c.contributed--
			}
			c.mu.Unlock()
			return ctx.Err()
		}
	}
	return nil
}

// send executes one flushed batch against the underlying connection and
// fans results back to every waiting caller. It runs detached from any
// single caller's context: the batch carries many callers' work, and a
// cancelled caller must not fail the others (the canceller has already
// stopped waiting via await).
func (c *Conn) send(batch []*entry, trigger string) {
	c.stats.recordFlush(trigger, len(batch))
	defer func() {
		for _, e := range batch {
			close(e.done)
		}
	}()
	ctx := context.Background()

	if len(batch) == 1 {
		// A solo flush needs no batch framing: ship the pre-encoded payload
		// and capture the raw result for the caller's deferred decode.
		e := batch[0]
		args := transport.RawArgs{Payload: e.payload}
		if err := c.under.Call(ctx, e.service, e.method, args, &e.res); err != nil {
			e.res = transport.BatchResult{Err: err}
		}
		return
	}

	calls := make([]transport.BatchCall, len(batch))
	for i, e := range batch {
		calls[i] = transport.BatchCall{Service: e.service, Method: e.method, Args: e.args, Raw: e.payload}
	}
	results, err := transport.CallBatch(ctx, c.under, calls)
	if err != nil {
		// Transport-level failure: every caller of this flush sees it.
		for _, e := range batch {
			e.res = transport.BatchResult{Err: err}
		}
		return
	}
	for i, e := range batch {
		e.res = results[i]
	}
}

var (
	_ transport.Conn        = (*Conn)(nil)
	_ transport.BatchCaller = (*Conn)(nil)
)
