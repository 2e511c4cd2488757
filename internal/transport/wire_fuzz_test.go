package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"testing"

	"datablinder/internal/wirefmt"
)

// fuzzArgs is a payload shape with every wirefmt primitive, registered
// under a dedicated service so the fuzz table exercises typed dispatch
// without touching production codecs.
type fuzzArgs struct {
	S  string   `json:"s"`
	B  []byte   `json:"b"`
	N  uint64   `json:"n"`
	I  int64    `json:"i"`
	OK bool     `json:"ok"`
	BS [][]byte `json:"bs"`
	SS []string `json:"ss"`
	US []uint64 `json:"us"`
}

type fuzzReply struct {
	Echo []byte `json:"echo"`
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
	mux := NewMux()
	HandleTyped(mux, "fuzz", "echo", func(_ context.Context, a *fuzzArgs) (any, error) {
		return fuzzReply{Echo: a.B}, nil
	})
	mux.Handle("fuzz", "json", func(_ context.Context, p json.RawMessage) (any, error) {
		return map[string]int{"n": len(p)}, nil
	})
	return mux
}

// FuzzBinaryFrame throws arbitrary bytes at both ends of the framing: the
// server's hello and request parse+execute paths and the client's hello
// reply and response parse paths. Malformed input must error (or be
// ignored), never panic, never over-allocate, and a parse that succeeds
// must consume the body exactly.
func FuzzBinaryFrame(f *testing.F) {
	table := registryTable() // what a same-binary hello negotiates
	mux := fuzzMux()

	// Seed with well-formed frames of every section kind.
	argPayload, _, err := appendArgs(nil, table, "fuzz.echo", &fuzzArgs{S: "s", B: []byte{1, 2}, US: []uint64{7}})
	if err != nil {
		f.Fatal(err)
	}
	req := binary.AppendUvarint([]byte{wireKindReq}, 99)
	req = appendCall(req, table, "fuzz.echo", encTyped, argPayload)
	f.Add(req)
	jsonReq := binary.AppendUvarint([]byte{wireKindReq}, 100)
	jsonReq = appendCall(jsonReq, table, "fuzz.json", encJSON, []byte(`{"x":1}`))
	f.Add(jsonReq)

	batch := []BatchCall{
		{Service: "fuzz", Method: "echo", Raw: argPayload, RawTyped: true},
		{Service: "fuzz", Method: "json", Raw: []byte(`{}`)},
	}
	batchBody, err := appendBatchPayload(nil, table, batch)
	if err != nil {
		f.Fatal(err)
	}
	batchReq := binary.AppendUvarint([]byte{wireKindReq}, 101)
	f.Add(appendCall(batchReq, table, batchName, encBatch, batchBody))
	batchResp := binary.AppendUvarint([]byte{wireKindResp}, 101)
	f.Add(wireExec(context.Background(), mux, table, batchResp,
		parsedCall{name: batchName, enc: encBatch, payload: batchBody}, true))

	okResp := binary.AppendUvarint([]byte{wireKindResp}, 99)
	okResp = appendResultOK(okResp, encTyped, []byte{3, 1, 2, 3})
	f.Add(okResp)
	errResp := binary.AppendUvarint([]byte{wireKindResp}, 99)
	errResp = appendResultErr(errResp, "not_found", "gone")
	f.Add(errResp)
	f.Add(appendHello(nil, RegisteredWireMethods()))
	f.Add(appendHelloReply(nil, []int{0, 2, 3}))
	f.Add([]byte{wireKindHello, wireVersion + 1, 0})
	f.Add([]byte{})
	f.Add([]byte{wireKindReq})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, body []byte) {
		// Either end of a fresh socket: the hello parsers read bytes no
		// table has vetted yet, and what they accept must make a table or a
		// clean error.
		if proposal, err := parseHello(body); err == nil {
			if _, err := newWireTable(proposal, acceptIndexes(proposal)); err != nil {
				t.Fatalf("own accept of a parsed proposal rejected: %v", err)
			}
		}
		if accept, err := parseHelloReply(body); err == nil {
			newWireTable(RegisteredWireMethods(), accept)
		}

		// Server side: parse and, when valid, execute.
		r := wirefmt.NewReader(body)
		kind := r.Byte()
		r.Uvarint() // request id
		if kind == wireKindReq {
			if call, err := parseCall(r, table); err == nil && r.Finish() == nil {
				out := wireExec(context.Background(), mux, table, nil, call, true)
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
		// Client side: response parse.
		if res, err := parseResult(r); err == nil && r.Finish() == nil {
			if res.ok && res.enc == encBatch {
				// Batch results parse one level deeper: two sub-slots of
				// arbitrary encoding, as Call would see them.
				parseBatchResults(batch, res.payload)
			}
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
