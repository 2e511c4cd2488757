// The wire protocol: a varint-framed binary envelope for the gateway↔cloud
// channel, with hand-rolled typed payload encodings for the hot RPCs (raw
// bytes ride as raw bytes: no base64, no reflective encode/decode) and JSON
// payloads for everything else.
//
// Hello: the first frame on a fresh socket is the client's hello, carrying
// the protocol version and the sorted list of methods it has typed codecs
// for. The server replies with the same version and the indexes of the
// methods it also holds codecs for; that agreed subset, in order, becomes
// the socket's method id table (id i+1 = i'th accepted method, id 0 =
// inline method name, the escape hatch for cold setup/admin methods). There
// is nothing to fall back to: a server drops a socket that opens with
// anything but a hello of its own version, and a client fails the dial
// with ErrWireProtocol when the answer is anything but a well-formed reply
// of its own version.
//
// Frame layout (both directions):
//
//	frame    := uvarint(len(body)) body            // len ≤ MaxFrameSize
//	body     := 0x01 uvarint(id) call              // request
//	          | 0x02 uvarint(id) result            // response
//	          | 0x03 uvarint(version) strs         // hello: client's methods
//	          | 0x03 uvarint(version) uvarints     // hello reply: accepted indexes
//	call     := method enc uvarint(len) payload
//	method   := uvarint(mid)                       // mid=0: + str(service.method)
//	enc      := 0x00 (JSON) | 0x01 (typed) | 0x02 (batch, _batch.exec only)
//	result   := 0x00 enc uvarint(len) payload      // ok
//	          | 0x01 str(code) str(msg)            // handler error
//	batch    := uvarint(n) n×call                  // request payload, enc 0|1
//	batchres := uvarint(n) n×result                // response payload
//	str      := uvarint(len) bytes
//	strs     := uvarint(n) n×str
//	uvarints := uvarint(n) n×uvarint
//
// Typed payloads are used only for methods in the agreed table (both ends
// are then guaranteed to hold the codec); everything else — including any
// argument value a codec does not recognise — is a JSON payload inside the
// same envelope.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
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
const wireVersion = 2

// Frame kind and payload encoding tags.
const (
	wireKindReq   = 0x01
	wireKindResp  = 0x02
	wireKindHello = 0x03

	encJSON  = 0x00 // payload is JSON bytes
	encTyped = 0x01 // payload is the method's registered PayloadCodec encoding
	encBatch = 0x02 // payload is a batch of calls (_batch.exec only)

	wireStatusOK  = 0x00
	wireStatusErr = 0x01
)

// ErrWireProtocol reports a peer that does not speak this protocol: a
// hello that is missing, malformed or of another version, or a malformed
// frame (truncated varint, oversized length, unknown method id, bad tag
// byte). Peers that send one have their connection dropped.
var ErrWireProtocol = errors.New("transport: wire protocol violation")

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
// buffer) and returns the extended slice; an encode error (e.g. an
// unexpected argument type) makes the transport fall back to a JSON
// payload for that call. Decode must be strictly bounds-checked: malformed
// input returns an error, never panics. Decoded byte slices may alias the
// input buffer.
type PayloadCodec struct {
	NewArgs     func() any
	EncodeArgs  func(dst []byte, args any) ([]byte, error)
	DecodeArgs  func(data []byte, args any) error
	NewReply    func() any                                  // nil when the reply stays JSON
	EncodeReply func(dst []byte, reply any) ([]byte, error) // nil: reply always JSON
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
// recognise; the transport falls back to JSON for that payload.
var errCodecType = errors.New("transport: value type not handled by codec")

// NoReply marks a method without a typed reply encoding in Codec.
type NoReply = struct{}

// Codec builds a PayloadCodec from four append/consume functions, keeping
// per-method codecs down to their field lists. encR may be nil for
// write-style methods whose replies stay JSON (use NoReply for R).
// Encoders must be deterministic (coalescing dedups on encoded bytes).
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

// resolve maps a method id to its name and codec.
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

// appendMethod appends a call's method, compressed to its table id when
// negotiated.
func appendMethod(b []byte, t *wireTable, name string) []byte {
	if mid, ok := t.ids[name]; ok {
		return binary.AppendUvarint(b, uint64(mid))
	}
	b = append(b, 0)
	return wirefmt.AppendString(b, name)
}

// appendCall appends one call section (method, enc, length-prefixed
// payload).
func appendCall(b []byte, t *wireTable, name string, enc byte, payload []byte) []byte {
	b = appendMethod(b, t, name)
	b = append(b, enc)
	return wirefmt.AppendBytes(b, payload)
}

// appendCallArgs appends the call section for args, encoding the payload
// in place (see appendArgs for what args may be).
func appendCallArgs(b []byte, t *wireTable, name string, args any) ([]byte, error) {
	b = appendMethod(b, t, name)
	encAt := len(b)
	b, mark := reserveLen(append(b, encJSON))
	b, enc, err := appendArgs(b, t, name, args)
	if err != nil {
		return b, err
	}
	b[encAt] = enc
	return sealLen(b, mark), nil
}

// callWireSize is the exact encoded size of one call section — the
// codec-derived per-sub-call overhead the batch chunker uses.
func callWireSize(t *wireTable, name string, payloadLen int) int {
	n := 1 // enc byte
	if mid, ok := t.ids[name]; ok {
		n += uvarintLen(uint64(mid))
	} else {
		n += 1 + uvarintLen(uint64(len(name))) + len(name)
	}
	return n + uvarintLen(uint64(payloadLen)) + payloadLen
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
	codec   *PayloadCodec // non-nil when resolved via the table
	enc     byte
	payload []byte // aliases the frame buffer
}

// parseCall consumes one call section from r.
func parseCall(r *wirefmt.Reader, t *wireTable) (parsedCall, error) {
	var c parsedCall
	mid := r.Uvarint()
	if mid == 0 {
		c.name = r.String()
	} else {
		name, codec, ok := t.resolve(mid)
		if !ok {
			return c, fmt.Errorf("%w: unknown method id %d", ErrWireProtocol, mid)
		}
		c.name, c.codec = name, codec
	}
	c.enc = r.Byte()
	c.payload = r.Bytes()
	if err := r.Err(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrWireProtocol, err)
	}
	if c.enc > encBatch {
		return c, fmt.Errorf("%w: bad payload encoding 0x%02x", ErrWireProtocol, c.enc)
	}
	if c.codec == nil && c.enc == encTyped {
		// Typed payloads are only legal for table methods; an inline-named
		// typed payload would be undecodable.
		c.codec = LookupCodec(c.name)
		if c.codec == nil {
			return c, fmt.Errorf("%w: typed payload for unregistered method %s", ErrWireProtocol, c.name)
		}
	}
	return c, nil
}

// appendResultOK appends an ok result section.
func appendResultOK(b []byte, enc byte, payload []byte) []byte {
	b = append(b, wireStatusOK, enc)
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
	enc     byte
	payload []byte // aliases the frame buffer
	code    string
	msg     string
}

func parseResult(r *wirefmt.Reader) (parsedResult, error) {
	var res parsedResult
	switch status := r.Byte(); status {
	case wireStatusOK:
		res.ok = true
		res.enc = r.Byte()
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
	if res.ok && res.enc > encBatch {
		return res, fmt.Errorf("%w: bad result encoding 0x%02x", ErrWireProtocol, res.enc)
	}
	return res, nil
}

// appendArgs appends the payload of one outgoing call to dst and reports
// its encoding. A []BatchCall is a batch payload (_batch.exec); RawArgs
// pass through pre-encoded; any other value is typed when the method is in
// the table and its codec recognises the value, JSON otherwise. With a nil
// dst the payload is freshly allocated and may be retained.
func appendArgs(dst []byte, t *wireTable, name string, args any) (out []byte, enc byte, err error) {
	switch a := args.(type) {
	case []BatchCall:
		out, err = appendBatchPayload(dst, t, a)
		return out, encBatch, err
	case RawArgs:
		var payload []byte
		payload, enc, err = payloadFor(t, name, a.Payload, a.Typed, a.Args)
		return adopt(dst, payload), enc, err
	}
	if mid, ok := t.ids[name]; ok {
		start := time.Now()
		if b, cerr := t.codecs[mid-1].EncodeArgs(dst, args); cerr == nil {
			wireRecordEncode(name, time.Since(start))
			return b, encTyped, nil
		}
		// Unrecognised argument type: fall back to JSON.
	}
	if args == nil {
		return dst, encJSON, nil
	}
	b, err := json.Marshal(args)
	if err != nil {
		return dst, 0, fmt.Errorf("transport: encoding args: %w", err)
	}
	return adopt(dst, b), encJSON, nil
}

// adopt appends p to dst, or hands p over as is when there is no dst.
func adopt(dst, p []byte) []byte {
	if dst == nil {
		return p
	}
	return append(dst, p...)
}

// payloadFor picks the payload to ship for name on a socket with table t:
// the pre-encoded raw when there is one and t can carry it, a fresh
// encoding of args otherwise. A typed payload is only sendable where the
// method was negotiated; one encoded against another socket's table (the
// server changed between a redial and its predecessor) is re-encoded.
func payloadFor(t *wireTable, name string, raw []byte, rawTyped bool, args any) ([]byte, byte, error) {
	if raw != nil {
		if !rawTyped {
			return raw, encJSON, nil
		}
		if _, ok := t.ids[name]; ok {
			return raw, encTyped, nil
		}
		if args == nil {
			return nil, 0, fmt.Errorf("transport: typed payload for unnegotiated method %s and no args to re-encode", name)
		}
	}
	return appendArgs(nil, t, name, args)
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
		if res.enc != encBatch || out == nil {
			return fmt.Errorf("%w: non-batch result for %s", ErrWireProtocol, name)
		}
		start := time.Now()
		results, err := parseBatchResults(calls, res.payload)
		wireRecordDecode(name, time.Since(start))
		*out = results
		return err
	}
	if res.enc == encBatch {
		return fmt.Errorf("%w: unexpected batch result for %s", ErrWireProtocol, name)
	}
	if br, ok := reply.(*BatchResult); ok {
		br.Payload = append(br.Payload[:0], res.payload...)
		br.typed = res.enc == encTyped
		br.method = name
		return nil
	}
	if reply == nil || len(res.payload) == 0 {
		return nil
	}
	if res.enc == encTyped {
		codec := LookupCodec(name)
		if codec == nil || codec.DecodeReply == nil {
			return fmt.Errorf("transport: no reply codec for %s", name)
		}
		start := time.Now()
		err := codec.DecodeReply(res.payload, reply)
		wireRecordDecode(name, time.Since(start))
		if err != nil {
			return fmt.Errorf("transport: decoding %s reply: %w", name, err)
		}
		return nil
	}
	if err := json.Unmarshal(res.payload, reply); err != nil {
		return fmt.Errorf("transport: decoding reply: %w", err)
	}
	return nil
}

// wireExec executes one parsed call against m and appends its result
// section to dst. typedReply authorises typed reply payloads (the peer
// negotiated this method). Batch payloads recurse one level.
func wireExec(ctx context.Context, m *Mux, t *wireTable, dst []byte, call parsedCall, typedReply bool) []byte {
	if call.enc == encBatch {
		if call.name != BatchService+"."+BatchMethod {
			return appendResultErr(dst, "", "transport: batch payload on non-batch method "+call.name)
		}
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
			if sub.enc == encBatch || sub.name == BatchService+"."+BatchMethod {
				body = appendResultErr(body, "", "transport: nested batch calls are not allowed")
				continue
			}
			body = wireExec(ctx, m, t, body, sub, typedReply)
		}
		if err := r.Finish(); err != nil {
			return appendResultErr(dst, "", "transport: decoding batch: trailing bytes")
		}
		return appendResultOK(dst, encBatch, body[wireFrameHdr:])
	}

	entry := m.lookup(call.name)
	if entry == nil {
		return appendResultErr(dst, "", fmt.Sprintf("%v: %s", ErrNoHandler, call.name))
	}

	var (
		result any
		err    error
	)
	switch call.enc {
	case encTyped:
		args := call.codec.NewArgs()
		start := time.Now()
		derr := call.codec.DecodeArgs(call.payload, args)
		wireRecordDecode(call.name, time.Since(start))
		if derr != nil {
			return appendResultErr(dst, "", fmt.Sprintf("transport: decoding %s args: %v", call.name, derr))
		}
		if entry.typed != nil {
			result, err = entry.typed(ctx, args)
		} else {
			// Handler registered without a typed path: re-encode the decoded
			// args as JSON so plain Handle registrations keep working.
			b, merr := json.Marshal(args)
			if merr != nil {
				return appendResultErr(dst, "", fmt.Sprintf("transport: re-encoding %s args: %v", call.name, merr))
			}
			result, err = entry.h(ctx, b)
		}
	default: // encJSON
		result, err = entry.h(ctx, call.payload)
	}
	if err != nil {
		return appendResultErr(dst, ErrorCode(err), err.Error())
	}

	// A nil result (write-style methods) needs no payload at all.
	if result == nil {
		return appendResultOK(dst, encJSON, nil)
	}

	// Encode the reply: typed, in place, when authorised and the codec
	// recognises the handler's value; JSON otherwise.
	if typedReply {
		if codec := codecForReply(t, call); codec != nil && codec.EncodeReply != nil {
			b, mark := reserveLen(append(dst, wireStatusOK, encTyped))
			start := time.Now()
			b, cerr := codec.EncodeReply(b, result)
			wireRecordEncode(call.name, time.Since(start))
			if cerr == nil {
				return sealLen(b, mark)
			}
		}
	}
	payload, merr := json.Marshal(result)
	if merr != nil {
		return appendResultErr(dst, "", fmt.Sprintf("transport: encoding response: %v", merr))
	}
	return appendResultOK(dst, encJSON, payload)
}

// codecForReply returns the codec authorised for a typed reply to call:
// the table entry when the call came in by id, or the registry entry for
// an inline-named call the peer nevertheless negotiated.
func codecForReply(t *wireTable, call parsedCall) *PayloadCodec {
	if call.codec != nil {
		return call.codec
	}
	if mid, ok := t.ids[call.name]; ok {
		return t.codecs[mid-1]
	}
	return nil
}

// RawArgs is an argument value whose payload was already encoded by the
// connection's WireCodec (see ConnCodec / WireCodec.EncodeArgs). The
// coalescer encodes sub-calls at enqueue time — for byte-accurate flush
// triggers and dedup keys — and ships them with RawArgs so the transport
// does not encode twice. A Typed payload is only sendable on a socket that
// negotiated the method; on one that did not, the transport re-encodes
// from the retained Args instead of failing the call.
type RawArgs struct {
	Payload []byte
	Typed   bool
	// Args is the original argument value, kept for re-encoding when the
	// pre-encoded payload does not fit the socket's method id table.
	Args any
}

// MarshalJSON makes RawArgs transparent to JSON encoders: a JSON payload
// passes through verbatim, a typed payload re-encodes from the retained
// args. Wrapper connections that inspect arguments with json.Marshal
// (bench instrumentation, logging) keep seeing the original value shape.
func (r RawArgs) MarshalJSON() ([]byte, error) {
	if !r.Typed {
		if len(r.Payload) == 0 {
			return []byte("null"), nil
		}
		return r.Payload, nil
	}
	if r.Args == nil {
		return nil, errors.New("transport: typed RawArgs without retained args")
	}
	return json.Marshal(r.Args)
}

// WireCodec describes how a Conn encodes call payloads, letting the batch
// chunker and the coalescer account exact per-sub-call wire sizes and
// pre-encode payloads against the connection's method id table.
type WireCodec interface {
	// Name is "binary".
	Name() string
	// EncodeArgs returns the payload for service.method and whether it used
	// the typed encoding.
	EncodeArgs(service, method string, args any) (payload []byte, typed bool, err error)
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
// is what their inner connection negotiates with a peer of this build;
// where it negotiated less, the transport re-encodes (see payloadFor).
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

func (c binaryWireCodec) EncodeArgs(service, method string, args any) ([]byte, bool, error) {
	payload, enc, err := appendArgs(nil, c.table, service+"."+method, args)
	return payload, enc == encTyped, err
}

func (c binaryWireCodec) SubSize(service, method string, payloadLen int) int {
	return callWireSize(c.table, service+"."+method, payloadLen)
}

func (binaryWireCodec) MaxChunkBytes() int { return maxBatchChunkBytes }
