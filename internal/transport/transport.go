// Package transport implements DataBlinder's gateway↔cloud communication
// channel: a varint-framed binary RPC protocol over TCP (see wire.go for
// the frame grammar), plus an in-process loopback implementation with
// identical serialization semantics.
//
// Every data protection tactic is a distributed protocol (paper §4.2);
// its gateway half reaches its cloud half exclusively through a Conn, so
// the same tactic code runs single-process (benchmarks, tests) or truly
// distributed (cmd/gateway + cmd/cloudserver).
//
// The TCP path is fully pipelined: each socket carries an unbounded number
// of in-flight calls correlated by request id, with a dedicated reader
// goroutine delivering out-of-order responses, and the server dispatches
// every request on its own goroutine (bounded by a semaphore) so pipelined
// requests genuinely overlap. Round trips therefore cost latency, not
// occupancy — the property the paper's §6 evaluation shows dominates
// end-to-end cost once tactics are distributed.
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
	"time"

	"datablinder/internal/conc"
	"datablinder/internal/wirefmt"
)

// MaxFrameSize bounds a single request or response frame (16 MiB). Frames
// beyond this indicate a protocol violation or abuse.
const MaxFrameSize = 16 << 20

// Common errors.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	ErrClosed        = errors.New("transport: connection closed")
	ErrNoHandler     = errors.New("transport: no handler registered")
)

// Structured remote error codes. Handlers attach them with WithCode; the
// mux preserves them across the wire so clients can branch without
// matching message substrings.
const (
	CodeNotFound      = "not_found"
	CodeAlreadyExists = "already_exists"
)

// RemoteError is an error returned by the remote handler, preserved across
// the wire.
type RemoteError struct {
	// Code is the structured error code set by the handler via WithCode,
	// or "" when the handler returned an uncoded error.
	Code string
	Msg  string
}

func (e *RemoteError) Error() string { return e.Msg }

// ErrorCode implements the coded-error interface, so codes survive
// re-wrapping (e.g. a gateway proxying a cloud error onwards).
func (e *RemoteError) ErrorCode() string { return e.Code }

// codedError attaches a structured code to an error.
type codedError struct {
	err  error
	code string
}

func (e *codedError) Error() string     { return e.err.Error() }
func (e *codedError) Unwrap() error     { return e.err }
func (e *codedError) ErrorCode() string { return e.code }

// WithCode attaches a structured code to err. The mux serializes the code
// into the response so the client-side RemoteError carries it.
func WithCode(err error, code string) error {
	if err == nil {
		return nil
	}
	return &codedError{err: err, code: code}
}

// ErrorCode extracts the structured code from err ("" if none). It unwraps
// through fmt.Errorf chains and across RemoteError.
func ErrorCode(err error) string {
	var c interface{ ErrorCode() string }
	if errors.As(err, &c) {
		return c.ErrorCode()
	}
	return ""
}

// handler runs one method on the args its codec decoded.
type handler func(ctx context.Context, args any) (any, error)

// Mux routes service.method names to handlers. The zero value is unusable;
// construct with NewMux. HandleTyped calls must complete before Serve
// starts.
//
// Every mux serves the reserved BatchService: a batch payload's sub-calls
// are dispatched to these handlers in order (see CallBatch and wireExec).
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]handler
}

// NewMux returns an empty router.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]handler)}
}

// HandleTyped registers fn for service.method, replacing any previous
// handler. The method's codec (RegisterCodec) decodes the args fn gets
// and encodes the reply it returns; registering a method without one, or
// with a codec of other args, panics.
func HandleTyped[A any](m *Mux, service, method string, fn func(ctx context.Context, args *A) (any, error)) {
	name := service + "." + method
	codec := LookupCodec(name)
	if codec == nil {
		panic("transport: HandleTyped " + name + ": no codec registered")
	}
	if _, ok := codec.NewArgs().(*A); !ok {
		panic(fmt.Sprintf("transport: HandleTyped %s: codec args are %T, not *%T", name, codec.NewArgs(), *new(A)))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[name] = func(ctx context.Context, args any) (any, error) {
		return fn(ctx, args.(*A))
	}
}

// lookup returns the handler for name, or nil.
func (m *Mux) lookup(name string) handler {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.handlers[name]
}

// Services returns the registered service.method names, unordered.
func (m *Mux) Services() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.handlers))
	for k := range m.handlers {
		out = append(out, k)
	}
	return out
}

// Conn is a client connection to a cloud endpoint. Implementations are safe
// for concurrent use.
type Conn interface {
	// Call invokes service.method with args and decodes the response payload
	// into reply (which may be nil to discard it).
	Call(ctx context.Context, service, method string, args, reply any) error
	// Close releases the connection. Subsequent calls return ErrClosed.
	Close() error
}

// DefaultMaxInFlight is the default per-server bound on concurrently
// executing handlers.
const DefaultMaxInFlight = 256

// idleWorkers is how many request goroutines a Server keeps parked between
// requests; more run when more requests are in flight.
const idleWorkers = 64

// Server serves a Mux over TCP. One reader goroutine per connection, one
// worker goroutine per request (bounded by a server-wide semaphore), so
// pipelined requests from a single socket execute concurrently and may
// complete out of order; the client correlates responses by request id.
// Workers are reused (conc.Pool): a request is short and its handler's call
// chain deep, so a fresh goroutine per frame spent more on being created,
// growing its stack and exiting than on the request.
type Server struct {
	mux *Mux

	// MaxInFlight bounds concurrently executing handlers across all
	// connections (DefaultMaxInFlight if zero). Set before Listen.
	MaxInFlight int

	sem     chan struct{}
	workers *conc.Pool
	ctx     context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer constructs a server for mux.
func NewServer(mux *Mux) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{mux: mux, conns: make(map[net.Conn]struct{}), ctx: ctx, cancel: cancel, workers: conc.NewPool(idleWorkers)}
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	if s.sem == nil {
		n := s.MaxInFlight
		if n <= 0 {
			n = DefaultMaxInFlight
		}
		s.sem = make(chan struct{}, n)
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 32<<10)
	table, err := acceptHello(conn, br)
	if err != nil {
		return // not a peer of this protocol version: drop it
	}
	// Responses from concurrent workers interleave on the socket; writeMu
	// keeps individual frames atomic.
	var writeMu sync.Mutex
	for {
		body, err := readWireFrame(br)
		if err != nil {
			return // EOF, broken frame, or peer reset: drop the connection
		}
		r := wirefmt.NewReader(body)
		if kind := r.Byte(); kind != wireKindReq {
			return
		}
		id := r.Uvarint()
		call, cerr := parseCall(r, table)
		if cerr != nil || r.Finish() != nil {
			// A malformed frame (bad envelope, unknown method id) would
			// desynchronize the stream; per-call handler errors, by
			// contrast, travel back as error results.
			return
		}
		wireRecordFrame(call.name, false, len(body)+uvarintLen(uint64(len(body))))
		select {
		case s.sem <- struct{}{}:
		case <-s.ctx.Done():
			return
		}
		s.wg.Add(1)
		s.workers.Go(func() {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			buf := newWireFrameBuf()
			buf = append(buf, wireKindResp)
			buf = binary.AppendUvarint(buf, id)
			buf = wireExec(s.ctx, s.mux, table, buf, call)
			frame, ferr := finishWireFrame(buf)
			if ferr != nil {
				// Response too large for one frame: report instead of
				// killing the connection.
				buf = buf[:wireFrameHdr]
				buf = append(buf, wireKindResp)
				buf = binary.AppendUvarint(buf, id)
				buf = appendResultErr(buf, "", ferr.Error())
				frame, _ = finishWireFrame(buf)
			}
			writeMu.Lock()
			_, werr := conn.Write(frame)
			writeMu.Unlock()
			putWireFrameBuf(buf)
			if werr != nil {
				conn.Close() // wakes the read loop; connection is torn down
				return
			}
			wireRecordFrame(call.name, true, len(frame))
		})
	}
}

// acceptHello reads the hello that must open every socket and answers it
// with the intersection of the client's proposal and the local codec
// registry, which becomes the connection's method id table. Anything else
// as a first frame — another protocol, another version, garbage — is an
// error and the caller drops the socket.
func acceptHello(conn net.Conn, br *bufio.Reader) (*wireTable, error) {
	body, err := readWireFrame(br)
	if err != nil {
		return nil, err
	}
	proposal, err := parseHello(body)
	if err != nil {
		return nil, err
	}
	accept := acceptIndexes(proposal)
	table, err := newWireTable(proposal, accept)
	if err != nil {
		return nil, err
	}
	if err := writeWireFrame(conn, appendHelloReply(newWireFrameBuf(), accept)); err != nil {
		return nil, err
	}
	return table, nil
}

// Close stops accepting, cancels in-flight handlers, closes all
// connections, and waits for workers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	s.workers.Close()
	return nil
}

// pending is one in-flight call awaiting its response.
type pending struct {
	method string             // for frame accounting in the read loop
	ch     chan *parsedResult // buffered(1); the reader delivers exactly once
}

// msock is one multiplexed client socket: a single writer-side mutex
// serializes frame writes, a dedicated reader goroutine correlates
// responses to pending calls by request id. table is the method id table
// the hello fixed for this socket at dial time; it is immutable once the
// read loop starts.
type msock struct {
	c       net.Conn
	br      *bufio.Reader
	table   *wireTable
	writeMu sync.Mutex

	mu     sync.Mutex
	calls  map[uint64]*pending
	err    error         // terminal socket error, set once before closing dead
	dead   chan struct{} // closed when the socket fails
	closed bool
}

// newMsock wraps a freshly dialed socket and performs the hello exchange
// synchronously before the socket is handed to callers (the socket is
// unpublished, so no other frames can interleave). timeout bounds the
// exchange.
func newMsock(c net.Conn, timeout time.Duration) (*msock, error) {
	m := &msock{c: c, br: bufio.NewReaderSize(c, 32<<10), calls: make(map[uint64]*pending), dead: make(chan struct{})}
	if err := m.clientHello(timeout); err != nil {
		c.Close()
		return nil, err
	}
	go m.readLoop()
	return m, nil
}

// clientHello proposes this build's codec methods and adopts the subset
// the server accepts as the socket's method id table. A peer that does not
// complete the exchange — it hangs up, or answers anything but a hello
// reply of this protocol version with in-range indexes — fails the dial
// with ErrWireProtocol: there is no other framing to fall back to.
func (m *msock) clientHello(timeout time.Duration) error {
	if err := m.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	defer m.c.SetDeadline(time.Time{})
	proposal := RegisteredWireMethods()
	err := writeWireFrame(m.c, appendHello(newWireFrameBuf(), proposal))
	var body []byte
	if err == nil {
		body, err = readWireFrame(m.br)
	}
	if err != nil {
		return fmt.Errorf("%w: hello: %w", ErrWireProtocol, err)
	}
	accept, err := parseHelloReply(body)
	if err != nil {
		return err
	}
	m.table, err = newWireTable(proposal, accept)
	return err
}

// readLoop delivers responses until the socket fails, then drains every
// pending call with the terminal error.
func (m *msock) readLoop() {
	for {
		body, err := readWireFrame(m.br)
		if err != nil {
			m.fail(fmt.Errorf("transport: read: %w", err))
			return
		}
		r := wirefmt.NewReader(body)
		kind := r.Byte()
		id := r.Uvarint()
		res, perr := parseResult(r)
		if kind != wireKindResp || perr != nil || r.Finish() != nil {
			m.fail(fmt.Errorf("%w: bad response frame", ErrWireProtocol))
			return
		}
		m.mu.Lock()
		p := m.calls[id]
		delete(m.calls, id)
		m.mu.Unlock()
		if p != nil {
			wireRecordFrame(p.method, false, len(body)+uvarintLen(uint64(len(body))))
			p.ch <- &res // buffered; never blocks
		}
		// No pending entry: the caller gave up (timeout/cancel); the
		// response is discarded and the socket stays usable.
	}
}

// fail marks the socket dead and wakes every pending caller. dead closes
// before mu is released, so whoever observes closed (a losing fail, a
// failed register) also observes dead: acquire tests liveness on dead, and
// a caller told to replay must never be handed this socket again.
func (m *msock) fail(err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.err = err
	m.calls = nil // callers learn the error via dead; entries are dropped
	close(m.dead)
	m.mu.Unlock()
	m.c.Close()
}

// register files a pending call under id. It fails if the socket is dead.
func (m *msock) register(id uint64, p *pending) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.err
	}
	m.calls[id] = p
	return nil
}

// deregister abandons a pending call (timeout/cancel). The response, if it
// ever arrives, is discarded by the read loop.
func (m *msock) deregister(id uint64) {
	m.mu.Lock()
	if m.calls != nil {
		delete(m.calls, id)
	}
	m.mu.Unlock()
}

// socketSlot lazily (re)dials one pool position. Slots fail independently:
// a dead socket only costs the calls in flight on it, and the next call on
// the slot redials.
type socketSlot struct {
	mu  sync.Mutex
	cur *msock // nil until dialed or after a failure was observed
}

// TCPClient is a Conn over a pool of multiplexed TCP sockets. Calls are
// distributed round-robin; every socket carries an unbounded number of
// concurrent in-flight calls (requests are pipelined, responses may return
// out of order), so PoolSize=1 already sustains N concurrent callers
// without serializing them. Additional sockets only add TCP-level
// parallelism (congestion windows, kernel buffers).
type TCPClient struct {
	addr    string
	timeout time.Duration

	nextID uint64 // atomic; request ids unique across the pool
	rr     uint32 // atomic round-robin cursor

	// table is the most recently negotiated method id table. Used for
	// client-level size accounting (ConnCodec); each socket pins its own
	// copy at dial time.
	table atomic.Pointer[wireTable]

	mu    sync.Mutex
	slots []*socketSlot
	done  bool
}

// DialOptions configures Dial.
type DialOptions struct {
	// PoolSize is the number of sockets (default 4). Because every socket
	// is pipelined, this bounds TCP-level parallelism, not in-flight calls.
	PoolSize int
	// Timeout bounds each dial and each call round trip (default 30s).
	Timeout time.Duration
}

// Dial connects to a Server at addr. A listener that is not a Server of
// this protocol version fails the dial with ErrWireProtocol.
func Dial(addr string, opts DialOptions) (*TCPClient, error) {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	c := &TCPClient{
		addr:    addr,
		timeout: opts.Timeout,
		slots:   make([]*socketSlot, opts.PoolSize),
	}
	for i := range c.slots {
		c.slots[i] = &socketSlot{}
	}
	// Dial the first socket eagerly so an unreachable server fails fast;
	// the remaining slots dial lazily on first use.
	m, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.slots[0].cur = m
	return c, nil
}

// dial opens one socket to the server and completes its hello.
func (c *TCPClient) dial() (*msock, error) {
	sock, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	m, err := newMsock(sock, c.timeout)
	if err != nil {
		return nil, err
	}
	c.table.Store(m.table)
	return m, nil
}

// WireCodec reports the codec of the most recently negotiated socket.
func (c *TCPClient) WireCodec() WireCodec {
	return binaryWireCodec{table: c.table.Load()}
}

// acquire returns a healthy multiplexed socket for the next call, redialing
// the slot if its previous socket died.
func (c *TCPClient) acquire() (*msock, error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	n := len(c.slots)
	c.mu.Unlock()

	slot := c.slots[int(atomic.AddUint32(&c.rr, 1))%n]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.cur != nil {
		select {
		case <-slot.cur.dead:
			slot.cur = nil // observed failure; fall through to redial
		default:
			return slot.cur, nil
		}
	}
	m, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	if done {
		m.fail(ErrClosed)
		return nil, ErrClosed
	}
	slot.cur = m
	return m, nil
}

// Call implements Conn. The call is pipelined: it occupies the socket only
// for the duration of the frame write, then waits for its correlated
// response while other calls proceed on the same socket. A batch chunk
// ([]BatchCall args, see CallBatch) is a call like any other.
//
// A call that fails because its socket died mid-flight (write error, or
// the reader exiting before the response arrived) is transparently
// replayed exactly once: acquire redials the dead slot, and only this call
// is resent — neighbouring calls that failed on the same socket each make
// their own retry decision. If the replay fails too, the original error is
// surfaced. Timeouts and context cancellations are never replayed (the
// request may still be executing server-side), and remote errors are
// definitive answers, not transport failures.
func (c *TCPClient) Call(ctx context.Context, service, method string, args, reply any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	name := service + "." + method
	res, err, sockDead := c.roundTrip(ctx, name, args)
	if sockDead && ctx.Err() == nil {
		if res2, err2, dead2 := c.roundTrip(ctx, name, args); err2 == nil && !dead2 {
			res, err = res2, nil
		}
		// Replay failed: report the original failure, not the retry's.
	}
	if err != nil {
		return err
	}
	return decodeResult(name, res, args, reply)
}

// roundTrip sends one request and waits for its response, encoding args
// against the acquired socket's method id table (a replay after a redial
// therefore re-encodes for the new socket's table). sockDead reports that
// the failure was the socket dying under this call — the class of error a
// single redial-and-replay can heal — as opposed to a timeout,
// cancellation, client close, or a response that actually arrived.
func (c *TCPClient) roundTrip(ctx context.Context, name string, args any) (res *parsedResult, err error, sockDead bool) {
	m, err := c.acquire()
	if err != nil {
		return nil, err, false
	}

	id := atomic.AddUint64(&c.nextID, 1)
	p := &pending{method: name, ch: make(chan *parsedResult, 1)}
	if err := m.register(id, p); err != nil {
		// The socket died between acquire and register; same class as a
		// write failure (unless the client itself was closed).
		return nil, err, !errors.Is(err, ErrClosed)
	}

	// Encode the full frame, payload in place, outside the write lock.
	buf := newWireFrameBuf()
	buf = append(buf, wireKindReq)
	buf = binary.AppendUvarint(buf, id)
	buf, err = appendCallArgs(buf, m.table, name, args)
	var frame []byte
	if err == nil {
		frame, err = finishWireFrame(buf)
	}
	if err != nil {
		putWireFrameBuf(buf)
		m.deregister(id)
		return nil, err, false
	}

	// Frame writes are short; bound them so a wedged peer cannot hold the
	// write mutex forever. Read timeouts are per-call (the timer below),
	// never socket-wide: a slow response must not fail its neighbours.
	m.writeMu.Lock()
	werr := m.c.SetWriteDeadline(time.Now().Add(c.timeout))
	if werr == nil {
		_, werr = m.c.Write(frame)
	}
	m.writeMu.Unlock()
	putWireFrameBuf(buf)
	if werr != nil {
		m.deregister(id)
		// A half-written frame poisons the stream for every call on the
		// socket; kill it so they fail fast and the slot redials.
		m.fail(fmt.Errorf("transport: write: %w", werr))
		return nil, fmt.Errorf("transport: write: %w", werr), true
	}
	wireRecordFrame(name, true, len(frame))

	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	select {
	case res = <-p.ch:
	case <-ctx.Done():
		m.deregister(id)
		return nil, ctx.Err(), false
	case <-timer.C:
		m.deregister(id)
		return nil, fmt.Errorf("transport: call %s: timeout after %v", name, c.timeout), false
	case <-m.dead:
		// The reader exited; either our response will never come, or it
		// raced in just before the failure.
		select {
		case res = <-p.ch:
		default:
			return nil, m.err, !errors.Is(m.err, ErrClosed)
		}
	}
	return res, nil, false
}

// Close implements Conn.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return nil
	}
	c.done = true
	slots := c.slots
	c.mu.Unlock()
	for _, slot := range slots {
		slot.mu.Lock()
		if slot.cur != nil {
			slot.cur.fail(ErrClosed)
			slot.cur = nil
		}
		slot.mu.Unlock()
	}
	return nil
}

// Loopback is a Conn that dispatches directly into a Mux in-process,
// routing every payload through the wire codec so serialization behaviour
// matches the TCP path exactly: payloads are encoded by the method's codec
// and re-decoded on dispatch. It is used
// by benchmarks (scenario S_B/S_C single-host runs) and tests. Calls
// dispatch on the caller's goroutine, so it is as concurrent as its
// callers.
type Loopback struct {
	mux   *Mux
	table *wireTable

	mu     sync.Mutex
	closed bool
}

// NewLoopback returns a loopback connection to mux with the method id
// table two peers of this build negotiate: every registered codec method.
func NewLoopback(mux *Mux) *Loopback {
	return &Loopback{mux: mux, table: registryTable()}
}

// WireCodec reports the loopback's codec.
func (l *Loopback) WireCodec() WireCodec {
	return binaryWireCodec{table: l.table}
}

// Call implements Conn.
func (l *Loopback) Call(ctx context.Context, service, method string, args, reply any) error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	name := service + "." + method
	// The payload is freshly allocated, never pooled: typed decoders alias
	// it and handlers may keep what they decoded.
	payload, err := appendArgs(nil, l.table, name, args)
	if err != nil {
		return err
	}
	call := parsedCall{name: name, payload: payload}
	if mid, _ := l.table.mid(name); mid != 0 {
		call.codec = l.table.codecs[mid-1]
	}
	body := wireExec(ctx, l.mux, l.table, nil, call)
	r := wirefmt.NewReader(body)
	res, perr := parseResult(r)
	if perr != nil || r.Finish() != nil {
		return fmt.Errorf("%w: loopback result", ErrWireProtocol)
	}
	return decodeResult(name, &res, args, reply)
}

// Close implements Conn.
func (l *Loopback) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// IsNotFoundError reports whether err is a remote error coded
// CodeNotFound. The code is the whole test: handlers that mean "not found"
// say so with WithCode, and a message that merely reads like one is not.
func IsNotFoundError(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == CodeNotFound
}

// IsAlreadyExistsError reports whether err is a remote error coded
// CodeAlreadyExists (e.g. an insert hitting a duplicate document id).
func IsAlreadyExistsError(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == CodeAlreadyExists
}

var (
	_ Conn = (*TCPClient)(nil)
	_ Conn = (*Loopback)(nil)
)
