// The wire protocol: a varint-framed binary envelope for the gateway↔cloud
// channel whose every payload is the typed encoding of the method's
// registered codec (raw bytes ride as raw bytes: no base64, no reflective
// encode/decode).
//
// Hello: the first frame on a fresh socket is the client's hello, carrying
// the protocol version and the sorted list of methods it has codecs for.
// The server replies with the same version and the indexes of the methods
// it also holds codecs for; that agreed subset, in order, becomes the
// socket's method id table (id i+1 = i'th accepted method; id 0 is the
// batch executor, _batch.exec). Nothing travels by name, so a call to a
// method outside the table fails on the client before any frame is sent.
// There is nothing to fall back to either: a server drops a socket that
// opens with anything but a hello of its own version, and a client fails
// the dial with ErrWireProtocol when the answer is anything but a
// well-formed reply of its own version.
//
// Frame layout (both directions):
//
//	frame    := uvarint(len(body)) body            // len ≤ MaxFrameSize
//	body     := 0x01 uvarint(id) call              // request
//	          | 0x02 uvarint(id) result            // response
//	          | 0x03 uvarint(version) strs         // hello: client's methods
//	          | 0x03 uvarint(version) uvarints     // hello reply: accepted indexes
//	call     := uvarint(mid) uvarint(len) payload  // mid 0: payload is a batch
//	result   := 0x00 uvarint(len) payload          // ok
//	          | 0x01 str(code) str(msg)            // handler error
//	batch    := uvarint(n) n×call                  // a mid 0 inside fails that slot
//	batchres := uvarint(n) n×result                // the reply payload of mid 0
//	str      := uvarint(len) bytes
//	strs     := uvarint(n) n×str
//	uvarints := uvarint(n) n×uvarint
//
// An empty payload is nil args or a nil reply, and decodes to the zero
// value.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datablinder/internal/wirefmt"
)

// wireVersion is the protocol version both peers state in the hello.
// Version 4 gave the per-field index writes one shared cell payload, which
// changed the layout of rnd.put, agg.put and the column removes.
const wireVersion = 4

// Frame kind and result status tags.
const (
	wireKindReq   = 0x01
	wireKindResp  = 0x02
	wireKindHello = 0x03

	wireStatusOK  = 0x00
	wireStatusErr = 0x01
)

// ErrWireProtocol reports a peer that does not speak this protocol: a
// hello that is missing, malformed or of another version, or a malformed
// frame (truncated varint, oversized length, unknown method id, bad tag
// byte). Peers that send one have their connection dropped.
var ErrWireProtocol = errors.New("transport: wire protocol violation")

// ErrNotNegotiated reports a call to a method outside the connection's
// method id table: the peer holds no codec for it (or this build does not).
// The call fails before any frame is sent.
var ErrNotNegotiated = errors.New("transport: method not negotiated with the peer")

// appendHello appends the client's hello body: the sorted service.method
// names it holds typed payload codecs for.
func appendHello(b []byte, methods []string) []byte {
	b = append(b, wireKindHello)
	b = binary.AppendUvarint(b, wireVersion)
	return wirefmt.AppendStrings(b, methods)
}

// appendHelloReply appends the server's answer: accept indexes into the
// client's method list and fixes the method id table (id = position in
// accept + 1).
func appendHelloReply(b []byte, accept []int) []byte {
	b = append(b, wireKindHello)
	b = binary.AppendUvarint(b, wireVersion)
	b = binary.AppendUvarint(b, uint64(len(accept)))
	for _, idx := range accept {
		b = binary.AppendUvarint(b, uint64(idx))
	}
	return b
}

// helloHeader consumes the kind and version both hello directions open
// with.
func helloHeader(r *wirefmt.Reader) error {
	kind, version := r.Byte(), r.Uvarint()
	switch {
	case r.Err() != nil || kind != wireKindHello:
		return fmt.Errorf("%w: first frame is not a hello", ErrWireProtocol)
	case version != wireVersion:
		return fmt.Errorf("%w: peer speaks version %d, this build speaks %d", ErrWireProtocol, version, wireVersion)
	}
	return nil
}

// parseHello decodes a client hello body into its method proposal.
func parseHello(body []byte) ([]string, error) {
	r := wirefmt.NewReader(body)
	if err := helloHeader(r); err != nil {
		return nil, err
	}
	methods := r.Strings()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: hello: %v", ErrWireProtocol, err)
	}
	return methods, nil
}

// parseHelloReply decodes a server hello reply body into its accept
// indexes. Whether they fit the proposal is newWireTable's check; here an
// index only has to fit an int.
func parseHelloReply(body []byte) ([]int, error) {
	r := wirefmt.NewReader(body)
	if err := helloHeader(r); err != nil {
		return nil, err
	}
	accept := make([]int, r.Count())
	for i := range accept {
		idx := r.Uvarint()
		if idx > MaxFrameSize {
			// No proposal that fits a frame has this many entries.
			return nil, fmt.Errorf("%w: hello reply: accept index %d", ErrWireProtocol, idx)
		}
		accept[i] = int(idx)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("%w: hello reply: %v", ErrWireProtocol, err)
	}
	return accept, nil
}

// PayloadCodec is the typed binary encoding of one method's argument and
// reply payloads. Encode appends to dst (which may be a pooled frame
// buffer) and returns the extended slice; a value of a type the codec does
// not handle is an encode error, and the call fails. Decode must be
// strictly bounds-checked: malformed input returns an error, never panics.
// Decoded byte slices may alias the input buffer.
type PayloadCodec struct {
	NewArgs     func() any
	EncodeArgs  func(dst []byte, args any) ([]byte, error)
	DecodeArgs  func(data []byte, args any) error
	NewReply    func() any                                  // nil for a method whose reply is always nil
	EncodeReply func(dst []byte, reply any) ([]byte, error) // nil: the handler returns nil
	DecodeReply func(data []byte, reply any) error
}

// codecReg maps service.method → *PayloadCodec. Populated by package
// init() functions on both ends of the channel (the tactic and cloud
// packages register their wire shapes when imported), so gateway and
// cloudserver agree on the encodable set without central coordination.
var (
	codecMu  sync.RWMutex
	codecReg = make(map[string]*PayloadCodec)
)

// RegisterCodec registers the typed payload codec for service.method.
// Intended to be called from init(); later registrations replace earlier
// ones.
func RegisterCodec(service, method string, c *PayloadCodec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	codecReg[service+"."+method] = c
	registryTab.Store(nil)
}

// LookupCodec returns the codec registered for name ("service.method"),
// or nil.
func LookupCodec(name string) *PayloadCodec {
	codecMu.RLock()
	defer codecMu.RUnlock()
	return codecReg[name]
}

// RegisteredWireMethods returns the sorted names of all methods with typed
// codecs — the client's negotiation proposal.
func RegisteredWireMethods() []string {
	codecMu.RLock()
	out := make([]string, 0, len(codecReg))
	for k := range codecReg {
		out = append(out, k)
	}
	codecMu.RUnlock()
	sort.Strings(out)
	return out
}

// registryTab caches registryTable's result until the next RegisterCodec.
var registryTab atomic.Pointer[wireTable]

// registryTable is the table a hello between two peers of this build
// yields: every registered codec method. It is what a Loopback speaks, and
// what ConnCodec assumes of a Conn that does not say.
func registryTable() *wireTable {
	if t := registryTab.Load(); t != nil {
		return t
	}
	proposal := RegisteredWireMethods()
	t, err := newWireTable(proposal, acceptIndexes(proposal))
	if err != nil {
		panic(err) // unreachable: both lists come from the registry
	}
	registryTab.Store(t)
	return t
}

// errCodecType reports an argument/reply value a typed codec does not
// recognise.
var errCodecType = errors.New("transport: value type not handled by codec")

// NoReply marks a method without a typed reply encoding in Codec.
type NoReply = struct{}

// Codec builds a PayloadCodec from four append/consume functions, keeping
// per-method codecs down to their field lists. encR may be nil for
// write-style methods whose handlers return nil (use NoReply for R).
// Encoders must be deterministic.
// Decode functions receive a pooled Reader and must not retain it past
// the call (decoded values alias the payload buffer, not the Reader).
func Codec[A, R any](
	encA func(dst []byte, a *A) []byte,
	decA func(r *wirefmt.Reader, a *A),
	encR func(dst []byte, out *R) []byte,
	decR func(r *wirefmt.Reader, out *R),
) *PayloadCodec {
	c := &PayloadCodec{
		NewArgs: func() any { return new(A) },
		EncodeArgs: func(dst []byte, args any) ([]byte, error) {
			a, ok := argPtr[A](args)
			if !ok {
				return nil, errCodecType
			}
			return encA(dst, a), nil
		},
		DecodeArgs: func(data []byte, args any) error {
			a, ok := args.(*A)
			if !ok {
				return errCodecType
			}
			r := wirefmt.GetReader(data)
			decA(r, a)
			err := r.Finish()
			wirefmt.PutReader(r)
			return err
		},
	}
	if encR != nil {
		c.NewReply = func() any { return new(R) }
		c.EncodeReply = func(dst []byte, reply any) ([]byte, error) {
			out, ok := argPtr[R](reply)
			if !ok {
				return nil, errCodecType
			}
			return encR(dst, out), nil
		}
		c.DecodeReply = func(data []byte, reply any) error {
			out, ok := reply.(*R)
			if !ok {
				return errCodecType
			}
			r := wirefmt.GetReader(data)
			decR(r, out)
			err := r.Finish()
			wirefmt.PutReader(r)
			return err
		}
	}
	return c
}

// WriteCodec builds a PayloadCodec for a write-style method whose reply is
// empty (the handler returns nil); only the arguments get a typed encoding.
// The gateway's coalescer queues exactly these methods (no NewReply).
func WriteCodec[A any](
	encA func(dst []byte, a *A) []byte,
	decA func(r *wirefmt.Reader, a *A),
) *PayloadCodec {
	return Codec[A, NoReply](encA, decA, nil, nil)
}

// argPtr views v as *T, accepting both T and *T (handlers return reply
// values, callers pass pointers).
func argPtr[T any](v any) (*T, bool) {
	switch x := v.(type) {
	case *T:
		return x, true
	case T:
		return &x, true
	}
	return nil, false
}

// wireTable is one connection's negotiated method id table: the ordered
// intersection of the two peers' codec registries. mid i+1 ↔ names[i].
type wireTable struct {
	names  []string
	codecs []*PayloadCodec
	ids    map[string]uint16
}

// newWireTable builds the table both peers derive from a hello exchange.
// proposal is the client's method list, accept the server's chosen indexes
// (strictly increasing, in range); every accepted method must be in the
// local registry.
func newWireTable(proposal []string, accept []int) (*wireTable, error) {
	t := &wireTable{ids: make(map[string]uint16, len(accept))}
	prev := -1
	for _, idx := range accept {
		if idx <= prev || idx >= len(proposal) {
			return nil, fmt.Errorf("%w: bad accept index %d", ErrWireProtocol, idx)
		}
		prev = idx
		name := proposal[idx]
		c := LookupCodec(name)
		if c == nil {
			return nil, fmt.Errorf("%w: accepted unknown method %q", ErrWireProtocol, name)
		}
		t.names = append(t.names, name)
		t.codecs = append(t.codecs, c)
		t.ids[name] = uint16(len(t.names))
	}
	return t, nil
}

// mid returns the method id name travels under: 0 for the batch executor,
// its table id for a negotiated method, ErrNotNegotiated otherwise.
func (t *wireTable) mid(name string) (uint16, error) {
	if name == batchName {
		return 0, nil
	}
	if mid, ok := t.ids[name]; ok {
		return mid, nil
	}
	return 0, fmt.Errorf("%w: %s", ErrNotNegotiated, name)
}

// resolve maps a nonzero method id to its name and codec.
func (t *wireTable) resolve(mid uint64) (string, *PayloadCodec, bool) {
	if mid == 0 || mid > uint64(len(t.names)) {
		return "", nil, false
	}
	return t.names[mid-1], t.codecs[mid-1], true
}

// acceptIndexes picks the proposal entries present in the local registry.
func acceptIndexes(proposal []string) []int {
	var accept []int
	for i, name := range proposal {
		if LookupCodec(name) != nil {
			accept = append(accept, i)
		}
	}
	return accept
}

// maxPooledBuf caps the capacity of recycled frame buffers so one huge
// frame does not pin megabytes in the pool forever.
const maxPooledBuf = 64 << 10

// wireBufPool recycles frame encode buffers.
var wireBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// wireFrameHdr is the reserved prefix for the frame length uvarint
// (MaxFrameSize < 2^28 → at most 4 bytes, +1 slack).
const wireFrameHdr = 5

// newWireFrameBuf returns a pooled buffer pre-seeded with the length
// placeholder. Finish with finishWireFrame; recycle with putWireFrameBuf.
func newWireFrameBuf() []byte {
	b := (*wireBufPool.Get().(*[]byte))[:0]
	return append(b, 0, 0, 0, 0, 0)
}

func putWireFrameBuf(b []byte) {
	if cap(b) <= maxPooledBuf {
		b = b[:0]
		wireBufPool.Put(&b)
	}
}

// finishWireFrame writes the body length uvarint immediately before the
// body and returns the wire-ready frame (a suffix of buf).
func finishWireFrame(buf []byte) ([]byte, error) {
	body := len(buf) - wireFrameHdr
	if body > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	var hdr [wireFrameHdr]byte
	n := binary.PutUvarint(hdr[:], uint64(body))
	frame := buf[wireFrameHdr-n:]
	copy(frame[:n], hdr[:n])
	return frame, nil
}

// readWireFrame reads one varint-framed body. The returned buffer is
// freshly allocated and owned by the caller: typed decoders alias it, so
// it is never pooled.
func readWireFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, err
	}
	return body, nil
}

// writeWireFrame finishes buf (see newWireFrameBuf), writes it to w as one
// frame and recycles it.
func writeWireFrame(w io.Writer, buf []byte) error {
	frame, err := finishWireFrame(buf)
	if err == nil {
		_, err = w.Write(frame)
	}
	putWireFrameBuf(buf)
	return err
}

// lenSlack is the room reserved for the length of a payload that is
// encoded in place, before its size is known: uvarint(len) of anything a
// frame can hold (MaxFrameSize < 2^28) fits.
const lenSlack = 5

// reserveLen reserves lenSlack bytes for the length of the payload about
// to be appended and returns their offset, for sealLen.
func reserveLen(b []byte) ([]byte, int) {
	return append(b, make([]byte, lenSlack)...), len(b)
}

// sealLen closes a payload encoded in place after reserveLen: it writes
// the payload's length at mark and shifts the payload down over the unused
// slack.
func sealLen(b []byte, mark int) []byte {
	start := mark + lenSlack
	var l [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(l[:], uint64(len(b)-start))
	copy(b[mark:], l[:n])
	copy(b[mark+n:], b[start:])
	return b[:mark+n+len(b)-start]
}

// appendCall appends one call section for an already encoded payload.
func appendCall(b []byte, t *wireTable, name string, payload []byte) ([]byte, error) {
	mid, err := t.mid(name)
	if err != nil {
		return b, err
	}
	b = binary.AppendUvarint(b, uint64(mid))
	return wirefmt.AppendBytes(b, payload), nil
}

// appendCallArgs appends the call section for args, encoding the payload
// in place (see appendArgs for what args may be).
func appendCallArgs(b []byte, t *wireTable, name string, args any) ([]byte, error) {
	mid, err := t.mid(name)
	if err != nil {
		return b, err
	}
	b, mark := reserveLen(binary.AppendUvarint(b, uint64(mid)))
	if b, err = appendArgs(b, t, name, args); err != nil {
		return b, err
	}
	return sealLen(b, mark), nil
}

// callWireSize is the exact encoded size of one call section — the
// codec-derived per-sub-call overhead the batch chunker uses.
func callWireSize(t *wireTable, name string, payloadLen int) int {
	// 0 for the batch executor; an unnegotiated call fails when it is framed.
	mid := t.ids[name]
	return uvarintLen(uint64(mid)) + uvarintLen(uint64(payloadLen)) + payloadLen
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// parsedCall is one decoded call section.
type parsedCall struct {
	name    string
	codec   *PayloadCodec // nil for a batch
	payload []byte        // aliases the frame buffer
}

// parseCall consumes one call section from r.
func parseCall(r *wirefmt.Reader, t *wireTable) (parsedCall, error) {
	var c parsedCall
	mid := r.Uvarint()
	c.payload = r.Bytes()
	if err := r.Err(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrWireProtocol, err)
	}
	if mid == 0 {
		c.name = batchName
		return c, nil
	}
	name, codec, ok := t.resolve(mid)
	if !ok {
		return c, fmt.Errorf("%w: unknown method id %d", ErrWireProtocol, mid)
	}
	c.name, c.codec = name, codec
	return c, nil
}

// appendResultOK appends an ok result section.
func appendResultOK(b []byte, payload []byte) []byte {
	b = append(b, wireStatusOK)
	return wirefmt.AppendBytes(b, payload)
}

// appendResultErr appends a handler-error result section.
func appendResultErr(b []byte, code, msg string) []byte {
	b = append(b, wireStatusErr)
	b = wirefmt.AppendString(b, code)
	return wirefmt.AppendString(b, msg)
}

// parsedResult is one decoded result section.
type parsedResult struct {
	ok      bool
	payload []byte // aliases the frame buffer
	code    string
	msg     string
}

func parseResult(r *wirefmt.Reader) (parsedResult, error) {
	var res parsedResult
	switch status := r.Byte(); status {
	case wireStatusOK:
		res.ok = true
		res.payload = r.Bytes()
	case wireStatusErr:
		res.code = r.String()
		res.msg = r.String()
	default:
		if err := r.Err(); err != nil {
			return res, fmt.Errorf("%w: %v", ErrWireProtocol, err)
		}
		return res, fmt.Errorf("%w: bad result status 0x%02x", ErrWireProtocol, status)
	}
	if err := r.Err(); err != nil {
		return res, fmt.Errorf("%w: %v", ErrWireProtocol, err)
	}
	return res, nil
}

// appendArgs appends the payload of one outgoing call to dst. The batch
// executor takes []BatchCall; any other method takes nil (an empty
// payload), RawArgs (shipped as is) or a value its codec recognises. With
// a nil dst the payload is freshly allocated and may be retained.
func appendArgs(dst []byte, t *wireTable, name string, args any) ([]byte, error) {
	mid, err := t.mid(name)
	if err != nil {
		return dst, err
	}
	if mid == 0 {
		calls, ok := args.([]BatchCall)
		if !ok {
			return dst, fmt.Errorf("transport: %s args are %T, want []BatchCall", name, args)
		}
		return appendBatchPayload(dst, t, calls)
	}
	switch a := args.(type) {
	case nil:
		return dst, nil
	case RawArgs:
		if dst == nil {
			return a.Payload, nil
		}
		return append(dst, a.Payload...), nil
	}
	start := time.Now()
	b, err := t.codecs[mid-1].EncodeArgs(dst, args)
	if err != nil {
		return dst, fmt.Errorf("transport: encoding %s args (%T): %w", name, args, err)
	}
	wireRecordEncode(name, time.Since(start))
	return b, nil
}

// decodeResult turns the result of one call into Call's outcome: the
// remote error, the parsed sub-results of a batch chunk, or the payload
// decoded into reply. A *BatchResult reply captures the raw payload
// without decoding (the coalescer's deferred-decode path).
func decodeResult(name string, res *parsedResult, args, reply any) error {
	if !res.ok {
		return &RemoteError{Code: res.code, Msg: res.msg}
	}
	if calls, ok := args.([]BatchCall); ok {
		out, _ := reply.(*[]BatchResult)
		if out == nil {
			return fmt.Errorf("transport: %s reply must be a *[]BatchResult, not %T", name, reply)
		}
		start := time.Now()
		results, err := parseBatchResults(calls, res.payload)
		wireRecordDecode(name, time.Since(start))
		*out = results
		return err
	}
	if br, ok := reply.(*BatchResult); ok {
		br.Payload = append(br.Payload[:0], res.payload...)
		br.Name = name
		return nil
	}
	if reply == nil || len(res.payload) == 0 {
		return nil
	}
	start := time.Now()
	err := decodeReply(name, res.payload, reply)
	wireRecordDecode(name, time.Since(start))
	return err
}

// decodeReply decodes a reply payload of name into reply; an empty
// payload leaves reply at its zero value.
func decodeReply(name string, payload []byte, reply any) error {
	if reply == nil || len(payload) == 0 {
		return nil
	}
	codec := LookupCodec(name)
	if codec == nil || codec.DecodeReply == nil {
		return fmt.Errorf("transport: no reply codec for %s", name)
	}
	if err := codec.DecodeReply(payload, reply); err != nil {
		return fmt.Errorf("transport: decoding %s reply: %w", name, err)
	}
	return nil
}

// wireExec executes one parsed call against m and appends its result
// section to dst. A batch runs its sub-calls in order; a batch inside a
// batch fails its slot.
func wireExec(ctx context.Context, m *Mux, t *wireTable, dst []byte, call parsedCall) []byte {
	if call.codec == nil {
		r := wirefmt.NewReader(call.payload)
		n := r.Count()
		if r.Err() != nil {
			return appendResultErr(dst, "", "transport: decoding batch: malformed count")
		}
		body := newWireFrameBuf()
		defer putWireFrameBuf(body)
		body = binary.AppendUvarint(body[:wireFrameHdr], uint64(n))
		for i := 0; i < n; i++ {
			sub, err := parseCall(r, t)
			if err != nil {
				return appendResultErr(dst, "", fmt.Sprintf("transport: decoding batch sub-call %d: %v", i, err))
			}
			if sub.codec == nil {
				body = appendResultErr(body, "", "transport: nested batch calls are not allowed")
				continue
			}
			body = wireExec(ctx, m, t, body, sub)
		}
		if err := r.Finish(); err != nil {
			return appendResultErr(dst, "", "transport: decoding batch: trailing bytes")
		}
		return appendResultOK(dst, body[wireFrameHdr:])
	}

	fn := m.lookup(call.name)
	if fn == nil {
		return appendResultErr(dst, "", fmt.Sprintf("%v: %s", ErrNoHandler, call.name))
	}
	args := call.codec.NewArgs()
	if len(call.payload) > 0 {
		start := time.Now()
		err := call.codec.DecodeArgs(call.payload, args)
		wireRecordDecode(call.name, time.Since(start))
		if err != nil {
			return appendResultErr(dst, "", fmt.Sprintf("transport: decoding %s args: %v", call.name, err))
		}
	}
	result, err := fn(ctx, args)
	if err != nil {
		return appendResultErr(dst, ErrorCode(err), err.Error())
	}
	// A nil result (write-style methods) needs no payload at all.
	if result == nil {
		return appendResultOK(dst, nil)
	}
	if call.codec.EncodeReply == nil {
		return appendResultErr(dst, "", fmt.Sprintf("transport: %s has no reply codec for a %T reply", call.name, result))
	}
	b, mark := reserveLen(append(dst, wireStatusOK))
	start := time.Now()
	b, err = call.codec.EncodeReply(b, result)
	wireRecordEncode(call.name, time.Since(start))
	if err != nil {
		return appendResultErr(dst, "", fmt.Sprintf("transport: encoding %s reply (%T): %v", call.name, result, err))
	}
	return sealLen(b, mark)
}

// RawArgs is an argument value whose payload was already encoded by the
// connection's WireCodec (see ConnCodec / WireCodec.EncodeArgs). The
// coalescer encodes sub-calls at enqueue time — for byte-accurate flush
// triggers — and ships them with RawArgs so the transport does not encode
// twice.
type RawArgs struct {
	Payload []byte
}

// WireCodec describes how a Conn encodes call payloads, letting the batch
// chunker and the coalescer account exact per-sub-call wire sizes and
// pre-encode payloads against the connection's method id table.
type WireCodec interface {
	// Name is "binary".
	Name() string
	// EncodeArgs returns the payload for service.method.
	EncodeArgs(service, method string, args any) ([]byte, error)
	// SubSize is the exact encoded size of one batch sub-call with a
	// payload of payloadLen bytes.
	SubSize(service, method string, payloadLen int) int
	// MaxChunkBytes caps the summed SubSizes shipped in one batch frame.
	MaxChunkBytes() int
}

// wireCodecProvider is implemented by Conns whose codec can be queried.
type wireCodecProvider interface {
	WireCodec() WireCodec
}

// ConnCodec returns conn's wire codec. Conns that do not expose one
// (wrappers, test fakes) get the codec of the full-registry table, which
// is what their inner connection negotiates with a peer of this build.
func ConnCodec(conn Conn) WireCodec {
	if p, ok := conn.(wireCodecProvider); ok {
		if c := p.WireCodec(); c != nil {
			return c
		}
	}
	return binaryWireCodec{table: registryTable()}
}

// binaryWireCodec accounts for the framing under one method id table.
type binaryWireCodec struct{ table *wireTable }

func (binaryWireCodec) Name() string { return "binary" }

func (c binaryWireCodec) EncodeArgs(service, method string, args any) ([]byte, error) {
	return appendArgs(nil, c.table, service+"."+method, args)
}

func (c binaryWireCodec) SubSize(service, method string, payloadLen int) int {
	return callWireSize(c.table, service+"."+method, payloadLen)
}

func (binaryWireCodec) MaxChunkBytes() int { return maxBatchChunkBytes }
