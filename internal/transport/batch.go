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

// BatchCall is one sub-call of a batch: Args is encoded by the method's
// codec into the frame that carries the batch.
type BatchCall struct {
	Service string
	Method  string
	Args    any
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

// CallBatch executes calls over conn and returns one result per call, in
// order. The connection's peer mux always supports it (the batch executor
// is built into the protocol). A connection that schedules batches itself
// (BatchCaller) gets the list directly; any other gets one conn.Call of
// BatchService with []BatchCall args and a *[]BatchResult reply, which
// wrapper Conns forward like any other call. The connection at the bottom
// frames it: a TCPClient cuts a large batch into several frames, sent in
// order so per-document index-update ordering is preserved, and a Loopback
// executes it whole. Transport-level failures return a non-nil error;
// per-call handler failures are reported in the corresponding BatchResult
// only.
func CallBatch(ctx context.Context, conn Conn, calls []BatchCall) ([]BatchResult, error) {
	if len(calls) == 0 {
		return nil, nil
	}
	if bc, ok := conn.(BatchCaller); ok {
		return bc.CallBatch(ctx, calls)
	}
	var out []BatchResult
	if err := conn.Call(ctx, BatchService, BatchMethod, calls, &out); err != nil {
		return nil, err
	}
	if len(out) != len(calls) {
		return nil, fmt.Errorf("transport: batch returned %d results for %d calls", len(out), len(calls))
	}
	return out, nil
}

// appendBatchPayload appends calls as one batch payload.
func appendBatchPayload(b []byte, calls []BatchCall) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(calls)))
	for i, call := range calls {
		var err error
		if b, err = appendBatchSub(b, call); err != nil {
			return b, fmt.Errorf("transport: encoding batch args [%d]: %w", i, err)
		}
	}
	return b, nil
}

// appendBatchSub appends the call section of one sub-call, its payload
// encoded in place, and bills the payload to the sub-call's method.
func appendBatchSub(b []byte, call BatchCall) ([]byte, error) {
	b, mid, n, err := appendCallArgs(b, call.Service, call.Method, call.Args)
	if err == nil {
		wireOf(mid).sub(true, n)
	}
	return b, err
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
		// The calls were encoded, so the table holds every name. The
		// payload aliases the response frame, which is never pooled.
		mid, name, _ := registryTable().method(calls[i].Service, calls[i].Method)
		wireOf(mid).sub(false, len(res.payload))
		out[i] = BatchResult{Payload: res.payload, Name: name}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("transport: decoding batch results: %w", err)
	}
	return out, nil
}
