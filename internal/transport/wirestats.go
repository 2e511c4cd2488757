// Wire-level observability: per-service.method byte/frame/time counters,
// published as expvar "datablinder_wire" (visible on the -pprof listener
// next to datablinder_coalesce), so what the codec costs is observable in
// production, not just in benches.

package transport

import (
	"expvar"
	"sort"
	"sync"
	"time"
)

// methodWireCounters accumulates one service.method's wire activity.
// Frame counts and bytes are recorded at the socket (a batch frame is
// billed to _batch.exec); encode/decode nanoseconds are recorded at the
// typed payload codecs, including per-sub-call work inside batches.
type methodWireCounters struct {
	mu        sync.Mutex
	framesOut uint64
	framesIn  uint64
	bytesOut  uint64
	bytesIn   uint64
	encodeNs  uint64
	decodeNs  uint64
}

var (
	wireStatsMu     sync.RWMutex
	wireMethodStats = make(map[string]*methodWireCounters)

	// wireTotals sums frames and bytes across all methods, both directions.
	wireTotals struct {
		mu     sync.Mutex
		frames uint64
		bytes  uint64
	}
)

func wireMethod(name string) *methodWireCounters {
	wireStatsMu.RLock()
	c, ok := wireMethodStats[name]
	wireStatsMu.RUnlock()
	if ok {
		return c
	}
	wireStatsMu.Lock()
	if c, ok = wireMethodStats[name]; !ok {
		c = &methodWireCounters{}
		wireMethodStats[name] = c
	}
	wireStatsMu.Unlock()
	return c
}

// wireRecordFrame bills one frame to method. out is true for frames this
// process wrote (requests on clients, responses on servers).
func wireRecordFrame(method string, out bool, bytes int) {
	c := wireMethod(method)
	c.mu.Lock()
	if out {
		c.framesOut++
		c.bytesOut += uint64(bytes)
	} else {
		c.framesIn++
		c.bytesIn += uint64(bytes)
	}
	c.mu.Unlock()
	wireTotals.mu.Lock()
	wireTotals.frames++
	wireTotals.bytes += uint64(bytes)
	wireTotals.mu.Unlock()
}

// wireRecordSub bills one batch sub-call's payload bytes to its own
// method (frames stay with the enclosing _batch.exec).
func wireRecordSub(method string, out bool, bytes int) {
	c := wireMethod(method)
	c.mu.Lock()
	if out {
		c.bytesOut += uint64(bytes)
	} else {
		c.bytesIn += uint64(bytes)
	}
	c.mu.Unlock()
}

func wireRecordEncode(method string, d time.Duration) {
	c := wireMethod(method)
	c.mu.Lock()
	c.encodeNs += uint64(d.Nanoseconds())
	c.mu.Unlock()
}

func wireRecordDecode(method string, d time.Duration) {
	c := wireMethod(method)
	c.mu.Lock()
	c.decodeNs += uint64(d.Nanoseconds())
	c.mu.Unlock()
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

// WireStatsSnapshot is the full counter state, as published under the
// "datablinder_wire" expvar. Codecs has the one key "binary".
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

// WireStats snapshots the wire counters.
func WireStats() WireStatsSnapshot {
	wireStatsMu.RLock()
	defer wireStatsMu.RUnlock()
	wireTotals.mu.Lock()
	totals := CodecWireStats{Frames: wireTotals.frames, Bytes: wireTotals.bytes}
	wireTotals.mu.Unlock()
	snap := WireStatsSnapshot{
		Methods: make(map[string]MethodWireStats, len(wireMethodStats)),
		Codecs:  map[string]CodecWireStats{"binary": totals},
	}
	for name, c := range wireMethodStats {
		c.mu.Lock()
		snap.Methods[name] = MethodWireStats{
			FramesOut: c.framesOut, FramesIn: c.framesIn,
			BytesOut: c.bytesOut, BytesIn: c.bytesIn,
			EncodeNs: c.encodeNs, DecodeNs: c.decodeNs,
		}
		c.mu.Unlock()
	}
	return snap
}

func init() {
	expvar.Publish("datablinder_wire", expvar.Func(func() any {
		snap := WireStats()
		// Stable method order for human eyes on /debug/vars.
		names := make([]string, 0, len(snap.Methods))
		for n := range snap.Methods {
			names = append(names, n)
		}
		sort.Strings(names)
		ordered := make([]map[string]any, 0, len(names))
		for _, n := range names {
			m := snap.Methods[n]
			ordered = append(ordered, map[string]any{
				"method": n, "frames_out": m.FramesOut, "frames_in": m.FramesIn,
				"bytes_out": m.BytesOut, "bytes_in": m.BytesIn,
				"encode_ns": m.EncodeNs, "decode_ns": m.DecodeNs,
			})
		}
		return map[string]any{"methods": ordered, "codecs": snap.Codecs}
	}))
}
