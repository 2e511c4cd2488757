// Batch calls: many service.method invocations carried in one frame and
// one round trip. A document insert that touches many indexed fields
// issues one per-field index write per tactic; batching turns those into a
// single gateway↔cloud exchange (paper §6: round trips, not crypto,
// dominate distributed-tactic cost).

package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"datablinder/internal/wirefmt"
)

// BatchService is the reserved service every Mux serves: a call to it
// carries a batch payload ([]BatchCall on the client, method id 0 on the
// wire) whose sub-calls the peer executes in order (see wireExec).
const (
	BatchService = "_batch"
	BatchMethod  = "exec"

	batchName = BatchService + "." + BatchMethod
)

// BatchCall is one sub-call of a batch. Raw optionally carries the payload
// pre-encoded by the connection's WireCodec (CallBatch fills it while it
// sizes chunks); Args is encoded when Raw is nil, and kept beside Raw for
// wrappers that inspect the call.
type BatchCall struct {
	Service string
	Method  string
	Args    any
	Raw     []byte
}

// BatchResult is one sub-call's outcome. Err is a *RemoteError when the
// sub-handler failed; otherwise Payload is the reply in the typed encoding
// of Name's codec (Name is service.method).
type BatchResult struct {
	Err     error
	Payload []byte
	Name    string
}

// Decode decodes the sub-reply into reply, returning the sub-call error if
// there was one.
func (r BatchResult) Decode(reply any) error {
	if r.Err != nil {
		return r.Err
	}
	return decodeReply(r.Name, r.Payload, reply)
}

// BatchCaller is implemented by connections that schedule batch sub-calls
// themselves (the gateway's per-shard write coalescer). CallBatch hands
// such a connection the call list directly, so a caller-built batch stays
// whole: it goes out as one batch, or parks whole for the shard's next
// merged flush.
type BatchCaller interface {
	CallBatch(ctx context.Context, calls []BatchCall) ([]BatchResult, error)
}

// maxBatchChunkBytes caps the encoded size of the sub-calls shipped in one
// _batch.exec frame. It leaves headroom under maxPooledBuf (64 KiB) for the
// outer request envelope, so a large merged batch ships as several chunks
// that keep reusing pooled frame buffers instead of allocating past the
// pool cap. A single sub-call larger than the cap still ships (in a chunk
// of its own); only that frame's buffer escapes the pool.
const maxBatchChunkBytes = 56 << 10

// CallBatch executes calls over conn and returns one result per call, in
// order. The connection's peer mux always supports it (the batch executor
// is built into the protocol). Sub-call payloads are encoded once, with the
// connection's wire codec, and chunked by their exact encoded sizes:
// batches that would exceed the frame-buffer pool cap split into several
// sequential calls — still in order, so per-document index-update ordering
// is preserved. Each chunk is an ordinary conn.Call of BatchService with
// []BatchCall args and a *[]BatchResult reply, which wrapper Conns forward
// like any other call. Transport-level failures return a non-nil error;
// per-call handler failures are reported in the corresponding BatchResult
// only.
func CallBatch(ctx context.Context, conn Conn, calls []BatchCall) ([]BatchResult, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	if bc, ok := conn.(BatchCaller); ok {
		return bc.CallBatch(ctx, calls)
	}
	codec := ConnCodec(conn)
	subs := make([]BatchCall, len(calls))
	sizes := make([]int, len(calls))
	for i, call := range calls {
		if call.Raw == nil {
			var err error
			if call.Raw, err = codec.EncodeArgs(call.Service, call.Method, call.Args); err != nil {
				return nil, fmt.Errorf("transport: encoding batch args [%d]: %w", i, err)
			}
		}
		subs[i] = call
		sizes[i] = codec.SubSize(call.Service, call.Method, len(call.Raw))
	}
	maxChunk := codec.MaxChunkBytes()
	var out []BatchResult
	for start := 0; start < len(subs); {
		end := start + 1
		bytes := sizes[start]
		for end < len(subs) && bytes+sizes[end] <= maxChunk {
			bytes += sizes[end]
			end++
		}
		var chunk []BatchResult
		if err := conn.Call(ctx, BatchService, BatchMethod, subs[start:end], &chunk); err != nil {
			return nil, err
		}
		if len(chunk) != end-start {
			return nil, fmt.Errorf("transport: batch returned %d results for %d calls", len(chunk), end-start)
		}
		if out == nil {
			out = chunk // the common single chunk needs no copy
		} else {
			out = append(out, chunk...)
		}
		start = end
	}
	return out, nil
}

// appendBatchPayload appends calls as a batch payload, encoding any
// sub-call that is not pre-encoded.
func appendBatchPayload(b []byte, t *wireTable, calls []BatchCall) ([]byte, error) {
	start := time.Now()
	b = binary.AppendUvarint(b, uint64(len(calls)))
	for i, call := range calls {
		name := call.Service + "." + call.Method
		payload := call.Raw
		var err error
		if payload == nil {
			payload, err = appendArgs(nil, t, name, call.Args)
		}
		if err == nil {
			b, err = appendCall(b, t, name, payload)
		}
		if err != nil {
			return b, fmt.Errorf("transport: encoding batch args [%d]: %w", i, err)
		}
		wireRecordSub(name, true, len(payload))
	}
	wireRecordEncode(batchName, time.Since(start))
	return b, nil
}

// parseBatchResults decodes a batch response payload into one result per
// call.
func parseBatchResults(calls []BatchCall, payload []byte) ([]BatchResult, error) {
	r := wirefmt.NewReader(payload)
	n := r.Count()
	if r.Err() != nil || n != len(calls) {
		return nil, fmt.Errorf("transport: batch returned %d results for %d calls", n, len(calls))
	}
	out := make([]BatchResult, n)
	for i := range out {
		res, err := parseResult(r)
		if err != nil {
			return nil, err
		}
		if !res.ok {
			out[i] = BatchResult{Err: &RemoteError{Code: res.code, Msg: res.msg}}
			continue
		}
		name := calls[i].Service + "." + calls[i].Method
		wireRecordSub(name, false, len(res.payload))
		out[i] = BatchResult{Payload: append([]byte(nil), res.payload...), Name: name}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("transport: decoding batch results: %w", err)
	}
	return out, nil
}
