// The wire protocol: a varint-framed binary envelope for the gateway↔cloud
// channel whose every payload is the typed encoding of the method's
// registered codec (raw bytes ride as raw bytes: no base64, no reflective
// encode/decode).
//
// One method table per build: the gateway and the cloud are built from one
// tree and register the same codecs, so the table (the sorted registry; id
// i+1 = i'th method, id 0 = the batch executor, _batch.exec) is a property
// of the build, fixed at its first use. Nothing travels by name, so a call
// to a method this build has no codec for fails on the client before any
// frame is sent.
//
// Hello: the first frame on a fresh socket is the client's hello, carrying
// the protocol version and the sorted list of its methods. The server
// answers with a bare ack of the same version if that list is its own, and
// otherwise drops the socket. There is nothing to negotiate and nothing to
// fall back to: a server drops a socket that opens with anything but such
// a hello, and a client fails the dial with ErrWireProtocol when the
// answer is anything but the ack.
//
// Frame layout (both directions):
//
//	frame    := uvarint(len(body)) body            // len ≤ MaxFrameSize
//	body     := 0x01 uvarint(id) call              // request
//	          | 0x02 uvarint(id) result            // response
//	          | 0x03 uvarint(version) strs         // hello: client's methods
//	          | 0x03 uvarint(version)              // hello ack
//	call     := uvarint(mid) uvarint(len) payload  // mid 0: payload is a batch
//	result   := 0x00 uvarint(len) payload          // ok
//	          | 0x01 str(code) str(msg)            // handler error
//	batch    := uvarint(n) n×call                  // a mid 0 inside fails that slot
//	batchres := uvarint(n) n×result                // the reply payload of mid 0
//	str      := uvarint(len) bytes
//	strs     := uvarint(n) n×str
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
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datablinder/internal/obs"
	"datablinder/internal/wirefmt"
)

// wireVersion is the protocol version both peers state in the hello.
// Version 4 gave the per-field index writes one shared cell payload, which
// changed the layout of rnd.put, agg.put and the column removes; version 5
// answers the hello with a bare ack instead of a list of accepted methods.
const wireVersion = 5

// Frame kind and result status tags.
const (
	wireKindReq   = 0x01
	wireKindResp  = 0x02
	wireKindHello = 0x03

	wireStatusOK  = 0x00
	wireStatusErr = 0x01
)

// ErrWireProtocol reports a peer that does not speak this protocol: a
// hello that is missing, malformed, of another version or of another
// method list, or a malformed frame (truncated varint, oversized length,
// unknown method id, bad tag byte). Peers that send one have their
// connection dropped.
var ErrWireProtocol = errors.New("transport: wire protocol violation")

// errNoCodec reports a call to a method this build holds no codec for. The
// call fails before any frame is sent.
var errNoCodec = errors.New("transport: no codec registered")

// appendHello appends the client's hello body: the sorted service.method
// names it holds typed payload codecs for.
func appendHello(b []byte, methods []string) []byte {
	b = append(b, wireKindHello)
	b = binary.AppendUvarint(b, wireVersion)
	return wirefmt.AppendStrings(b, methods)
}

// appendHelloAck appends the server's answer to a hello that names exactly
// its own methods: the kind and version, nothing else.
func appendHelloAck(b []byte) []byte {
	b = append(b, wireKindHello)
	return binary.AppendUvarint(b, wireVersion)
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

// parseHello decodes a client hello body into its method list.
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

// parseHelloAck checks a server's answer to the hello.
func parseHelloAck(body []byte) error {
	r := wirefmt.NewReader(body)
	if err := helloHeader(r); err != nil {
		return err
	}
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: hello ack: %v", ErrWireProtocol, err)
	}
	return nil
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

// codecReg maps service.method → *PayloadCodec until registryTable freezes
// it. Populated by package init() functions on both ends of the channel
// (the tactic and cloud packages register their wire shapes when
// imported), so a gateway and a cloudserver built from one tree hold the
// same methods without central coordination.
var (
	codecMu     sync.Mutex
	codecReg    = make(map[string]*PayloadCodec)
	codecFrozen bool
)

// RegisterCodec registers the typed payload codec for service.method.
// Call it from init(): the method table is a property of the build, fixed
// at its first use, and a registration after that panics.
func RegisterCodec(service, method string, c *PayloadCodec) {
	name := service + "." + method
	codecMu.Lock()
	defer codecMu.Unlock()
	if codecFrozen {
		panic("transport: RegisterCodec " + name + " after the method table's first use")
	}
	codecReg[name] = c
}

// LookupCodec returns the codec registered for name ("service.method"),
// or nil.
func LookupCodec(name string) *PayloadCodec {
	t := registryTable()
	if mid, ok := t.ids[name]; ok {
		return t.codecs[mid-1]
	}
	return nil
}

// RegisteredWireMethods returns the sorted names of all methods with typed
// codecs: the list a client's hello carries.
func RegisteredWireMethods() []string {
	return slices.Clone(registryTable().names)
}

// wireTable is the build's method id table: every registered codec method
// in sorted order, mid i+1 ↔ names[i]; mid 0 is the batch executor. The
// hello checks that both peers hold the same table, so every socket speaks
// it. wire[mid] are the method's wire counters.
type wireTable struct {
	names  []string
	codecs []*PayloadCodec
	ids    map[string]uint16
	wire   []wireCounters
}

// registryTable freezes the codec registry, on first use, into the method
// table.
var registryTable = sync.OnceValue(func() *wireTable {
	codecMu.Lock()
	defer codecMu.Unlock()
	codecFrozen = true
	t := &wireTable{ids: make(map[string]uint16, len(codecReg))}
	for name := range codecReg {
		t.names = append(t.names, name)
	}
	sort.Strings(t.names)
	for i, name := range t.names {
		t.codecs = append(t.codecs, codecReg[name])
		t.ids[name] = uint16(i + 1)
	}
	t.wire = make([]wireCounters, len(t.names)+1)
	return t
})

// name returns the name of method id mid, which the table holds.
func (t *wireTable) name(mid uint16) string {
	if mid == 0 {
		return batchName
	}
	return t.names[mid-1]
}

// wireOf returns the wire counters of method id mid.
func wireOf(mid uint16) *wireCounters { return &registryTable().wire[mid] }

// wireCounters are one method's wire counters. Frames and their bytes are
// billed at the socket, a batch frame to _batch.exec; a batch sub-call
// bills its payload bytes to its own method (sub). Encode and decode
// nanoseconds are billed at the typed payload codecs, sub-calls included.
type wireCounters struct {
	framesOut, framesIn atomic.Uint64
	bytesOut, bytesIn   atomic.Uint64
	frameBytes          atomic.Uint64 // the frames' bytes alone, both directions
	encodeNs, decodeNs  atomic.Uint64
}

// frame bills one frame of n bytes. out is true for frames this process
// writes (requests on clients, responses on servers).
func (c *wireCounters) frame(out bool, n int) {
	c.sub(out, n)
	if out {
		c.framesOut.Add(1)
	} else {
		c.framesIn.Add(1)
	}
	c.frameBytes.Add(uint64(n))
}

// sub bills n payload bytes of a batch sub-call.
func (c *wireCounters) sub(out bool, n int) {
	if out {
		c.bytesOut.Add(uint64(n))
	} else {
		c.bytesIn.Add(uint64(n))
	}
}

// MethodWireStats is a snapshot of one method's counters.
type MethodWireStats struct {
	FramesOut uint64 `json:"frames_out"`
	FramesIn  uint64 `json:"frames_in"`
	BytesOut  uint64 `json:"bytes_out"`
	BytesIn   uint64 `json:"bytes_in"`
	EncodeNs  uint64 `json:"encode_ns"`
	DecodeNs  uint64 `json:"decode_ns"`
}

// CodecWireStats is a snapshot of a codec's frame totals.
type CodecWireStats struct {
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
}

// WireStatsSnapshot is the wire counters of every method that has any. Codecs
// has the one key "binary", the frame totals of both directions; only
// benchmark/cmd/dblayers reads it (and TotalBytes), and the benchmark-only
// port that sums Methods instead deletes both.
type WireStatsSnapshot struct {
	Methods map[string]MethodWireStats `json:"methods"`
	Codecs  map[string]CodecWireStats  `json:"codecs"`
}

// TotalBytes sums frame bytes across codecs (both directions).
func (s WireStatsSnapshot) TotalBytes() uint64 {
	var n uint64
	for _, c := range s.Codecs {
		n += c.Bytes
	}
	return n
}

// wireRow is one method's counters as the "datablinder_wire" expvar lists
// them.
type wireRow struct {
	Method string `json:"method"`
	MethodWireStats
}

// wireRows snapshots the counters of every method that has any, in table
// order (sorted by name), with their frame totals.
func wireRows() ([]wireRow, CodecWireStats) {
	t := registryTable()
	var rows []wireRow
	var total CodecWireStats
	for mid := range t.wire {
		c := &t.wire[mid]
		m := MethodWireStats{
			FramesOut: c.framesOut.Load(), FramesIn: c.framesIn.Load(),
			BytesOut: c.bytesOut.Load(), BytesIn: c.bytesIn.Load(),
			EncodeNs: c.encodeNs.Load(), DecodeNs: c.decodeNs.Load(),
		}
		if m == (MethodWireStats{}) {
			continue
		}
		rows = append(rows, wireRow{Method: t.name(uint16(mid)), MethodWireStats: m})
		total.Frames += m.FramesOut + m.FramesIn
		total.Bytes += c.frameBytes.Load()
	}
	return rows, total
}

// WireStats snapshots the wire counters.
func WireStats() WireStatsSnapshot {
	rows, total := wireRows()
	snap := WireStatsSnapshot{
		Methods: make(map[string]MethodWireStats, len(rows)),
		Codecs:  map[string]CodecWireStats{"binary": total},
	}
	for _, r := range rows {
		snap.Methods[r.Method] = r.MethodWireStats
	}
	return snap
}

// The wire counters are published as expvar "datablinder_wire", on the
// -pprof listener next to datablinder_coalesce, so what the codec costs is
// observable in production, not just in benches.
func init() {
	obs.Publish("datablinder_wire", func() any {
		rows, total := wireRows()
		return struct {
			Methods []wireRow                 `json:"methods"`
			Codecs  map[string]CodecWireStats `json:"codecs"`
		}{rows, map[string]CodecWireStats{"binary": total}}
	})
}

// method returns the method id service.method travels under and its name
// as the table holds it: mid 0 for the batch executor, errNoCodec for a
// method this build has no codec for.
func (t *wireTable) method(service, method string) (uint16, string, error) {
	if service == BatchService && method == BatchMethod {
		return 0, batchName, nil
	}
	mid, ok := t.ids[service+"."+method]
	if !ok {
		return 0, "", fmt.Errorf("%w: %s.%s", errNoCodec, service, method)
	}
	return mid, t.names[mid-1], nil
}

// resolve maps a method id to its codec (nil for the batch executor).
func (t *wireTable) resolve(mid uint64) (*PayloadCodec, bool) {
	if mid == 0 {
		return nil, true
	}
	if mid > uint64(len(t.names)) {
		return nil, false
	}
	return t.codecs[mid-1], true
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
// The gateway's coalescer merges exactly these methods (no NewReply).
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
	return sealUvarint(b, mark, uint64(len(b)-mark-lenSlack))
}

// sealUvarint writes v over the lenSlack bytes reserved at mark and shifts
// what follows down over the unused slack.
func sealUvarint(b []byte, mark int, v uint64) []byte {
	start := mark + lenSlack
	var l [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(l[:], v)
	copy(b[mark:], l[:n])
	copy(b[mark+n:], b[start:])
	return b[:mark+n+len(b)-start]
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// appendCallArgs appends the call section of service.method for args,
// encoding the payload in place (see appendArgs for what args may be). It
// also returns the method's id and the payload's length.
func appendCallArgs(b []byte, service, method string, args any) (_ []byte, mid uint16, n int, err error) {
	mid, name, err := registryTable().method(service, method)
	if err != nil {
		return b, 0, 0, err
	}
	b, mark := reserveLen(binary.AppendUvarint(b, uint64(mid)))
	if b, err = appendArgs(b, mid, name, args); err != nil {
		return b, 0, 0, err
	}
	n = len(b) - mark - lenSlack
	return sealLen(b, mark), mid, n, nil
}

// parsedCall is one decoded call section.
type parsedCall struct {
	mid     uint16
	codec   *PayloadCodec // nil for a batch
	payload []byte        // aliases the frame buffer
}

// name returns the name of the called method.
func (c parsedCall) name() string { return registryTable().name(c.mid) }

// parseCall consumes one call section from r.
func parseCall(r *wirefmt.Reader) (parsedCall, error) {
	var c parsedCall
	mid := r.Uvarint()
	c.payload = r.Bytes()
	if err := r.Err(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrWireProtocol, err)
	}
	codec, ok := registryTable().resolve(mid)
	if !ok {
		return c, fmt.Errorf("%w: unknown method id %d", ErrWireProtocol, mid)
	}
	c.mid, c.codec = uint16(mid), codec
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

// appendArgs appends the payload of one outgoing call of method id mid
// (name) to dst. The batch executor takes []BatchCall; any other method
// takes nil (an empty payload) or a value its codec recognises. With a nil
// dst the payload is freshly allocated and may be retained.
func appendArgs(dst []byte, mid uint16, name string, args any) ([]byte, error) {
	if mid == 0 {
		calls, ok := args.([]BatchCall)
		if !ok {
			return dst, fmt.Errorf("transport: %s args are %T, want []BatchCall", name, args)
		}
		return appendBatchPayload(dst, calls)
	}
	if args == nil {
		return dst, nil
	}
	start := time.Now()
	b, err := registryTable().codecs[mid-1].EncodeArgs(dst, args)
	if err != nil {
		return dst, fmt.Errorf("transport: encoding %s args (%T): %w", name, args, err)
	}
	wireOf(mid).encodeNs.Add(uint64(time.Since(start)))
	return b, nil
}

// decodeResult turns the result of one call of method id mid into Call's
// outcome: the remote error, the parsed sub-results of a batch frame, or
// the payload decoded into reply.
func decodeResult(mid uint16, res *parsedResult, args, reply any) error {
	if !res.ok {
		return &RemoteError{Code: res.code, Msg: res.msg}
	}
	name := registryTable().name(mid)
	if calls, ok := args.([]BatchCall); ok {
		out, _ := reply.(*[]BatchResult)
		if out == nil {
			return fmt.Errorf("transport: %s reply must be a *[]BatchResult, not %T", name, reply)
		}
		start := time.Now()
		results, err := parseBatchResults(calls, res.payload)
		wireOf(mid).decodeNs.Add(uint64(time.Since(start)))
		*out = results
		return err
	}
	if reply == nil || len(res.payload) == 0 {
		return nil
	}
	start := time.Now()
	err := decodeReply(name, res.payload, reply)
	wireOf(mid).decodeNs.Add(uint64(time.Since(start)))
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
func wireExec(ctx context.Context, m *Mux, dst []byte, call parsedCall) []byte {
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
			sub, err := parseCall(r)
			if err != nil {
				return appendResultErr(dst, "", fmt.Sprintf("transport: decoding batch sub-call %d: %v", i, err))
			}
			if sub.codec == nil {
				body = appendResultErr(body, "", "transport: nested batch calls are not allowed")
				continue
			}
			body = wireExec(ctx, m, body, sub)
		}
		if err := r.Finish(); err != nil {
			return appendResultErr(dst, "", "transport: decoding batch: trailing bytes")
		}
		return appendResultOK(dst, body[wireFrameHdr:])
	}

	fn := m.lookup(call.name())
	if fn == nil {
		return appendResultErr(dst, "", fmt.Sprintf("%v: %s", ErrNoHandler, call.name()))
	}
	args := call.codec.NewArgs()
	if len(call.payload) > 0 {
		start := time.Now()
		err := call.codec.DecodeArgs(call.payload, args)
		wireOf(call.mid).decodeNs.Add(uint64(time.Since(start)))
		if err != nil {
			return appendResultErr(dst, "", fmt.Sprintf("transport: decoding %s args: %v", call.name(), err))
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
		return appendResultErr(dst, "", fmt.Sprintf("transport: %s has no reply codec for a %T reply", call.name(), result))
	}
	b, mark := reserveLen(append(dst, wireStatusOK))
	start := time.Now()
	b, err = call.codec.EncodeReply(b, result)
	wireOf(call.mid).encodeNs.Add(uint64(time.Since(start)))
	if err != nil {
		return appendResultErr(dst, "", fmt.Sprintf("transport: encoding %s reply (%T): %v", call.name(), result, err))
	}
	return sealLen(b, mark)
}

// WireCodec names the encoding a Conn speaks. Every Conn of this build
// speaks the one binary protocol; the type is kept only because
// benchmark/cmd/dblayers compiles against it.
type WireCodec interface {
	// Name is "binary".
	Name() string
}

// ConnCodec returns the codec conn speaks, which is "binary" whatever conn
// is. Kept only for benchmark/cmd/dblayers.
func ConnCodec(Conn) WireCodec { return binaryWireCodec{} }

type binaryWireCodec struct{}

func (binaryWireCodec) Name() string { return "binary" }
