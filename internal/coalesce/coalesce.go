// Package coalesce implements the gateway's per-shard group-commit stage:
// a transport.Conn wrapper that merges in-flight RPCs from *all* concurrent
// callers into one mega-batch per shard connection, flushed on a size cap,
// a byte cap, a short window timer, a gather condition (every active caller
// has contributed), or explicit drain.
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
// Reads coalesce too: an identical read already waiting in the queue is
// joined rather than re-enqueued (singleflight), and concurrent point reads
// (doc.get) of one collection merge into a single doc.getmany sub-call with
// per-caller demultiplexing. Deduplication only ever joins an *unsent*
// entry, which preserves read-your-writes: a read issued after a completed
// write can only join an entry enqueued after that write was flushed.
//
// # Flush triggers
//
// "gather" is the interesting one: the conn tracks how many callers are
// currently inside a coalesced Call (active) and how many of those have
// their sub-call sitting in the queue (contributed). When everyone who
// could contribute has contributed, waiting any longer is pure latency —
// the batch flushes immediately. A single sequential caller therefore
// pays no window latency at all (its own enqueue satisfies the gather
// condition), while 16 streaming callers naturally settle into one
// mega-batch per shard per round trip: callers waiting on an in-flight
// flush hold the gather condition open, and the moment their results land
// they re-enqueue and release the next batch. The window timer is the
// backstop for stragglers; the size and byte caps bound frame growth under
// the transport's frame-buffer pool limit.
package coalesce

import (
	"context"
	"fmt"
	"sync"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/transport"
)

// Defaults for Options zero values.
const (
	// DefaultMaxCalls caps the sub-calls accumulated per flush.
	DefaultMaxCalls = 128
	// DefaultMaxBytes caps the accumulated payload bytes per flush, sized
	// so a full batch's encoded frame stays under the transport's pooled
	// frame-buffer limit (64 KiB) and keeps reusing pooled buffers.
	DefaultMaxBytes = 48 << 10
	// DefaultWindow is the straggler backstop: the longest an enqueued
	// sub-call waits for company before flushing anyway.
	DefaultWindow = 200 * time.Microsecond
)

// Options configures a Conn. The zero value enables coalescing with the
// defaults above.
type Options struct {
	// Disabled routes every call straight through to the underlying
	// connection. A caller that composes its own coalescer chain under the
	// engine (the traced harness in benchmark/cmd/dblayers) sets it so the
	// engine does not stack a second one on top; see DESIGN.md §6.
	Disabled bool
	// MaxCalls flushes when this many sub-calls are queued (0 = default).
	MaxCalls int
	// MaxBytes flushes when the queued payloads reach this many bytes
	// (0 = default).
	MaxBytes int
	// Window flushes any queue this old even if no other trigger fired
	// (0 = default).
	Window time.Duration
	// NoGatherFlush disables the all-active-callers-contributed trigger,
	// leaving only size/bytes/window/drain. Tests use it to exercise the
	// window timer deterministically; production configurations leave it
	// false.
	NoGatherFlush bool
}

func (o Options) withDefaults() Options {
	if o.MaxCalls <= 0 {
		o.MaxCalls = DefaultMaxCalls
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	return o
}

// opClass is how the coalescer treats one service.method.
type opClass int

const (
	opPass  opClass = iota // unknown or stateful-setup call: straight through
	opWrite                // coalescable write
	opRead                 // coalescable read: joins an identical queued read
	opGet                  // doc.get: read, additionally mergeable into doc.getmany
)

// methodClass routes every known cloud method. Writes and reads coalesce;
// setup/provisioning calls, admin stats, and scans pass through (they are
// rare, sometimes stateful, and not worth batching). Unlisted methods pass
// through — unknown traffic must never be reordered into a batch.
var methodClass = map[string]opClass{
	"doc.put": opWrite, "doc.putmany": opWrite,
	"doc.delete": opWrite, "doc.deletemany": opWrite,
	"doc.get": opGet, "doc.getmany": opRead, "doc.count": opRead,
	"det.add": opWrite, "det.remove": opWrite, "det.lookup": opRead,
	"mitra.insert": opWrite, "mitra.search": opRead,
	"sophos.insert": opWrite, "sophos.search": opRead,
	"biex.insert": opWrite, "biex.repack": opWrite, "biex.search": opRead,
	"ope.add": opWrite, "ope.remove": opWrite, "ope.query": opRead,
	"ore.add": opWrite, "ore.remove": opWrite, "ore.query": opRead,
	"agg.put": opWrite, "agg.remove": opWrite, "agg.sum": opRead,
	"rnd.put": opWrite, "rnd.remove": opWrite, "rnd.scan": opRead,
}

func classify(service, method string) opClass {
	return methodClass[service+"."+method]
}

// entry is one caller's queued sub-call plus its completion future. The
// payload is pre-encoded with the underlying connection's wire codec at
// enqueue time (exact byte accounting, byte-level dedup keys, encode-once
// flushes); args rides beside it for wrappers that inspect sub-calls.
type entry struct {
	service, method string
	payload         []byte
	size            int // exact encoded sub-call size
	args            any
	dedupKey        string // non-empty for reads
	getArgs         *cloud.DocGetArgs

	taken bool // left the queue (flushed); guarded by Conn.mu
	done  chan struct{}
	res   transport.BatchResult // written before done closes, read-only after
}

// Conn wraps one shard's connection with the group-commit stage. It
// implements transport.Conn and transport.BatchCaller, so per-caller
// batches (DET's per-document index batch) merge into the shared flush
// like any other sub-calls.
type Conn struct {
	under transport.Conn
	opts  Options
	stats counters

	mu          sync.Mutex
	closed      bool
	pend        []*entry
	bytes       int
	active      int    // callers currently inside a coalesced Call
	contributed int    // active callers whose sub-calls sit in pend
	gen         uint64 // queue generation; invalidates stale window timers
	timer       *time.Timer
}

// New wraps under. The Conn registers itself for package-level stats
// aggregation (the expvar endpoint); Close unregisters.
func New(under transport.Conn, opts Options) *Conn {
	c := &Conn{under: under, opts: opts.withDefaults()}
	register(c)
	return c
}

// Under returns the wrapped connection.
func (c *Conn) Under() transport.Conn { return c.under }

// WireCodec exposes the underlying connection's codec so outer layers
// (batch chunking in particular) account the same wire sizes the flush
// will pay.
func (c *Conn) WireCodec() transport.WireCodec { return transport.ConnCodec(c.under) }

// Call implements transport.Conn. Coalescable calls are queued and the
// caller parks on a completion future; everything else passes through.
func (c *Conn) Call(ctx context.Context, service, method string, args, reply any) error {
	cls := classify(service, method)
	if c.opts.Disabled || cls == opPass || service == transport.BatchService {
		c.stats.passthrough.Add(1)
		return c.under.Call(ctx, service, method, args, reply)
	}
	codec := transport.ConnCodec(c.under)
	payload, err := codec.EncodeArgs(service, method, args)
	if err != nil {
		return err
	}
	c.enter()
	defer c.exit()
	e, ok := c.add(codec, service, method, payload, args, cls)
	if !ok {
		// Closed: fall through to the underlying conn, which reports it.
		return c.under.Call(ctx, service, method, args, reply)
	}
	if err := c.await(ctx, []*entry{e}); err != nil {
		return err
	}
	return e.res.Decode(reply)
}

// CallBatch implements transport.BatchCaller: a caller-built batch splices
// its sub-calls into the shared queue instead of framing its own
// `_batch.exec`. Sub-call order within the batch is preserved (the queue
// is FIFO and flushes whole). Transport-level flush failures are reported
// per-result, which every CallBatch caller already handles.
func (c *Conn) CallBatch(ctx context.Context, calls []transport.BatchCall) ([]transport.BatchResult, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	if c.opts.Disabled {
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
	ok := c.addBatch(entries)
	if !ok {
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
	return !c.opts.NoGatherFlush && len(c.pend) > 0 && c.contributed >= c.active
}

// add enqueues one sub-call, possibly flushing. Reads join an identical
// queued read instead of re-enqueueing. Returns ok=false when closed.
func (c *Conn) add(codec transport.WireCodec, service, method string, payload []byte, args any, cls opClass) (e *entry, ok bool) {
	var key string
	if cls == opRead || cls == opGet {
		// Byte-level dedup: identical reads encode identically.
		key = service + "." + method + "\x00" + string(payload)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false
	}
	c.stats.enqueued.Add(1)
	if key != "" {
		for _, p := range c.pend {
			if p.dedupKey == key {
				// Joining counts as contributing: the join may be the last
				// active caller the gather trigger was waiting on.
				c.contributed++
				c.stats.dedup.Add(1)
				var batch []*entry
				if c.gatherReadyLocked() {
					batch = c.takeLocked()
				}
				c.mu.Unlock()
				if batch != nil {
					c.send(batch, trigGather)
				}
				return p, true
			}
		}
	}
	e = &entry{
		service: service, method: method,
		payload: payload, args: args,
		size:     codec.SubSize(service, method, len(payload)),
		dedupKey: key, done: make(chan struct{}),
	}
	if cls == opGet {
		switch ga := args.(type) {
		case cloud.DocGetArgs:
			e.getArgs = &ga
		case *cloud.DocGetArgs:
			e.getArgs = ga
		}
	}
	batch, trigger := c.appendLocked([]*entry{e})
	c.mu.Unlock()
	if batch != nil {
		c.send(batch, trigger)
	}
	return e, true
}

// addBatch enqueues a caller's pre-built batch as consecutive entries.
func (c *Conn) addBatch(entries []*entry) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.stats.enqueued.Add(uint64(len(entries)))
	batch, trigger := c.appendLocked(entries)
	c.mu.Unlock()
	if batch != nil {
		c.send(batch, trigger)
	}
	return true
}

// appendLocked queues entries for one caller, marks the caller as having
// contributed, and decides whether to flush now. It returns the batch to
// send (nil = keep accumulating) and the trigger that fired.
func (c *Conn) appendLocked(entries []*entry) ([]*entry, string) {
	for _, e := range entries {
		c.pend = append(c.pend, e)
		c.bytes += e.size
	}
	c.contributed++
	if d := uint64(len(c.pend)); d > c.stats.maxDepth.Load() {
		c.stats.maxDepth.Store(d)
	}
	switch {
	case len(c.pend) >= c.opts.MaxCalls:
		return c.takeLocked(), trigSize
	case c.bytes >= c.opts.MaxBytes:
		return c.takeLocked(), trigBytes
	case c.gatherReadyLocked():
		return c.takeLocked(), trigGather
	}
	if c.timer == nil {
		gen := c.gen
		c.timer = time.AfterFunc(c.opts.Window, func() { c.fireWindow(gen) })
	}
	return nil, ""
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

// planned is one wire sub-call of a flush: either a single queued entry,
// or a merged doc.getmany carrying several callers' point reads of one
// collection.
type planned struct {
	call    transport.BatchCall
	members []*entry
	ids     []string // member ids of a merged getmany, in member order
}

// plan folds a batch into wire sub-calls, merging concurrent doc.get
// entries of the same collection into one doc.getmany. The merged call
// takes the queue position of its first member.
func (c *Conn) plan(batch []*entry) []planned {
	var gets int
	for _, e := range batch {
		if e.getArgs != nil {
			gets++
		}
	}
	merge := make(map[string]int) // collection -> planned index
	plans := make([]planned, 0, len(batch))
	for _, e := range batch {
		if gets > 1 && e.getArgs != nil {
			if i, ok := merge[e.getArgs.Collection]; ok {
				plans[i].members = append(plans[i].members, e)
				plans[i].ids = append(plans[i].ids, e.getArgs.ID)
				continue
			}
			merge[e.getArgs.Collection] = len(plans)
			plans = append(plans, planned{
				call:    transport.BatchCall{Service: cloud.DocService, Method: "getmany"},
				members: []*entry{e},
				ids:     []string{e.getArgs.ID},
			})
			continue
		}
		plans = append(plans, planned{
			call: transport.BatchCall{
				Service: e.service, Method: e.method,
				Args: e.args, Raw: e.payload,
			},
			members: []*entry{e},
		})
	}
	merged := 0
	for i := range plans {
		if len(plans[i].ids) > 1 {
			plans[i].call.Args = cloud.DocGetManyArgs{Collection: plans[i].members[0].getArgs.Collection, IDs: plans[i].ids}
			merged += len(plans[i].ids)
		} else if len(plans[i].ids) == 1 {
			// A lone get in a multi-get batch stays a plain doc.get.
			e := plans[i].members[0]
			plans[i].call = transport.BatchCall{
				Service: e.service, Method: e.method,
				Args: e.args, Raw: e.payload,
			}
			plans[i].ids = nil
		}
	}
	if merged > 0 {
		c.stats.getsMerged.Add(uint64(merged))
	}
	return plans
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
	plans := c.plan(batch)
	ctx := context.Background()

	if len(plans) == 1 && len(plans[0].members) == 1 {
		// A solo flush needs no batch framing: ship the pre-encoded payload
		// and capture the raw result for the caller's deferred decode.
		e := plans[0].members[0]
		args := transport.RawArgs{Payload: e.payload}
		if err := c.under.Call(ctx, e.service, e.method, args, &e.res); err != nil {
			e.res = transport.BatchResult{Err: err}
		}
		return
	}

	calls := make([]transport.BatchCall, len(plans))
	for i, p := range plans {
		calls[i] = p.call
	}
	results, err := transport.CallBatch(ctx, c.under, calls)
	if err != nil {
		// Transport-level failure: every caller of this flush sees it.
		for _, e := range batch {
			e.res = transport.BatchResult{Err: err}
		}
		return
	}
	for i, p := range plans {
		if len(p.ids) > 1 {
			demuxGetMany(p, results[i])
			continue
		}
		p.members[0].res = results[i]
	}
}

// docGet is the method a merged doc.getmany stands in for.
const docGet = cloud.DocService + ".get"

// demuxGetMany fans a merged doc.getmany result back into per-caller
// doc.get replies, synthesizing the not-found error a direct doc.get
// would have returned for ids the store does not hold.
func demuxGetMany(p planned, res transport.BatchResult) {
	if res.Err != nil {
		for _, e := range p.members {
			e.res = transport.BatchResult{Err: res.Err}
		}
		return
	}
	var reply cloud.DocGetManyReply
	if err := res.Decode(&reply); err != nil {
		for _, e := range p.members {
			e.res = transport.BatchResult{Err: err}
		}
		return
	}
	codec := transport.LookupCodec(docGet)
	found := make(map[string][]byte, len(reply.Records))
	for _, rec := range reply.Records {
		found[rec.ID] = rec.Blob
	}
	for i, e := range p.members {
		blob, ok := found[p.ids[i]]
		if !ok {
			e.res = transport.BatchResult{Err: &transport.RemoteError{
				Code: transport.CodeNotFound,
				Msg:  fmt.Sprintf("docstore: %s: document not found", p.ids[i]),
			}}
			continue
		}
		payload, err := codec.EncodeReply(nil, &cloud.DocGetReply{Blob: blob})
		if err != nil {
			e.res = transport.BatchResult{Err: err}
			continue
		}
		e.res = transport.BatchResult{Payload: payload, Name: docGet}
	}
}

var (
	_ transport.Conn        = (*Conn)(nil)
	_ transport.BatchCaller = (*Conn)(nil)
)
