package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"datablinder/internal/wirefmt"
)

// fuzzArgs is a payload shape with every wirefmt primitive, registered
// under a dedicated service so the fuzz table exercises typed dispatch
// without touching production codecs.
type fuzzArgs struct {
	S  string
	B  []byte
	N  uint64
	I  int64
	OK bool
	BS [][]byte
	SS []string
	US []uint64
}

type fuzzReply struct {
	Echo []byte
}

func init() {
	RegisterCodec("fuzz", "echo", Codec(
		func(b []byte, a *fuzzArgs) []byte {
			b = wirefmt.AppendString(b, a.S)
			b = wirefmt.AppendBytes(b, a.B)
			b = wirefmt.AppendUvarint(b, a.N)
			b = wirefmt.AppendInt64(b, a.I)
			b = wirefmt.AppendBool(b, a.OK)
			b = wirefmt.AppendByteSlices(b, a.BS)
			b = wirefmt.AppendStrings(b, a.SS)
			return wirefmt.AppendUint64s(b, a.US)
		},
		func(r *wirefmt.Reader, a *fuzzArgs) {
			a.S = r.String()
			a.B = r.Bytes()
			a.N = r.Uvarint()
			a.I = r.Int64()
			a.OK = r.Bool()
			a.BS = r.ByteSlices()
			a.SS = r.Strings()
			a.US = r.Uint64s()
		},
		func(b []byte, out *fuzzReply) []byte { return wirefmt.AppendBytes(b, out.Echo) },
		func(r *wirefmt.Reader, out *fuzzReply) { out.Echo = r.Bytes() },
	))
}

func fuzzMux() *Mux {
	mux := testMux()
	HandleTyped(mux, "fuzz", "echo", func(_ context.Context, a *fuzzArgs) (any, error) {
		return fuzzReply{Echo: a.B}, nil
	})
	return mux
}

// FuzzBinaryFrame throws arbitrary bytes at both ends of the framing: the
// server's hello and request parse+execute paths and the client's hello
// ack and response parse paths. Malformed input must error (or be
// ignored), never panic, never over-allocate, and a parse that succeeds
// must consume the body exactly.
func FuzzBinaryFrame(f *testing.F) {
	mux := fuzzMux()
	request := func(id uint64, service, method string, args any) []byte {
		b, _, _, err := appendCallArgs(binary.AppendUvarint([]byte{wireKindReq}, id), service, method, args)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}

	// Seed with well-formed frames of every section kind: a typed call, a
	// call with nil args (empty payload), a batch as mid 0 carrying a mid 0
	// of its own, and its response.
	f.Add(request(99, "fuzz", "echo", &fuzzArgs{S: "s", B: []byte{1, 2}, US: []uint64{7}}))
	f.Add(request(100, "test", "echo", nil))
	batch := []BatchCall{
		{Service: "fuzz", Method: "echo", Args: &fuzzArgs{S: "s", B: []byte{1, 2}, US: []uint64{7}}},
		{Service: "test", Method: "add", Args: tmsg{A: 2, B: 3}},
		{Service: BatchService, Method: BatchMethod, Args: []BatchCall{{Service: "test", Method: "echo"}}},
	}
	f.Add(request(101, BatchService, BatchMethod, batch))
	batchResp := binary.AppendUvarint([]byte{wireKindResp}, 101)
	batchBody := encodeArgs(f, BatchService, BatchMethod, batch)
	f.Add(wireExec(context.Background(), mux, batchResp, parsedCall{payload: batchBody}))

	okResp := binary.AppendUvarint([]byte{wireKindResp}, 99)
	okResp = appendResultOK(okResp, []byte{3, 1, 2, 3})
	f.Add(okResp)
	errResp := binary.AppendUvarint([]byte{wireKindResp}, 99)
	errResp = appendResultErr(errResp, "not_found", "gone")
	f.Add(errResp)
	f.Add(appendHello(nil, RegisteredWireMethods()))
	f.Add(appendHelloAck(nil))
	f.Add([]byte{wireKindHello, wireVersion - 1, 0})
	f.Add([]byte{})
	f.Add([]byte{wireKindReq})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, body []byte) {
		// Either end of a fresh socket: the hello parsers read bytes no
		// check has vetted yet.
		parseHello(body)
		parseHelloAck(body)

		// Server side: parse and, when valid, execute.
		r := wirefmt.NewReader(body)
		kind := r.Byte()
		r.Uvarint() // request id
		if kind == wireKindReq {
			if call, err := parseCall(r); err == nil && r.Finish() == nil {
				out := wireExec(context.Background(), mux, nil, call)
				// Whatever the handler did, the result section must parse.
				rr := wirefmt.NewReader(out)
				if _, err := parseResult(rr); err != nil {
					t.Fatalf("wireExec produced unparsable result: %v", err)
				}
				if err := rr.Finish(); err != nil {
					t.Fatalf("wireExec result has trailing bytes: %v", err)
				}
			}
			return
		}
		// Client side: response parse. Whether a payload is a batch's is the
		// call's business, so every ok payload is also tried as one.
		if res, err := parseResult(r); err == nil && r.Finish() == nil && res.ok {
			parseBatchResults(batch, res.payload)
		}
	})
}

// FuzzWirefmtReader drives the primitive reader directly: every accessor
// in sequence over arbitrary input, checking the latched-error contract.
func FuzzWirefmtReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x61, 0x02, 0x01, 0x02})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wirefmt.NewReader(data)
		_ = r.String() // vet: String() results must be used
		r.Bytes()
		r.Uvarint()
		r.Int64()
		r.Bool()
		r.ByteSlices()
		r.Strings()
		r.Uint64s()
		if r.Err() != nil && r.Finish() == nil {
			t.Fatal("Finish must fail after a read error")
		}
	})
}
