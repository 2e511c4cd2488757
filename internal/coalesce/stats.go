// Coalescer observability, following the kvstore Stats pattern: cheap
// always-on atomic counters, snapshotted on demand, aggregated across every
// live Conn into one expvar ("datablinder_coalesce") so the -pprof endpoint
// of gateway and cloudserver exposes them without extra wiring.

package coalesce

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// Flush kinds (keys of Stats.FlushByTrigger).
const (
	flushDirect = "direct" // a write to an idle shard, sent by its caller
	flushMerged = "merged" // the writes parked behind a flush
)

// counters are one Conn's live counters.
type counters struct {
	direct, merged atomic.Uint64 // flushes by kind
	subCalls       atomic.Uint64
	coalesced      atomic.Uint64 // sub-calls that shared their flush with another caller's
}

func (s *counters) flushed(kind string, subCalls int, shared bool) {
	if kind == flushDirect {
		s.direct.Add(1)
	} else {
		s.merged.Add(1)
	}
	s.subCalls.Add(uint64(subCalls))
	if shared {
		s.coalesced.Add(uint64(subCalls))
	}
}

// Stats is a point-in-time snapshot of one Conn (or, via Aggregate, of
// every live Conn in the process).
type Stats struct {
	// DedupHits is always 0: reads are not merged, so none joins another.
	// The field stays for readers built against it.
	DedupHits uint64 `json:"dedup_hits"`
	// Flushes is the total flush count; FlushByTrigger splits it into
	// "direct" and "merged".
	Flushes        uint64            `json:"flushes"`
	FlushByTrigger map[string]uint64 `json:"flush_by_trigger"`
	// SubCalls counts write sub-calls sent; CoalescedSubCalls the subset
	// that shared a merged flush with another caller's (the merge rate).
	SubCalls          uint64 `json:"sub_calls"`
	CoalescedSubCalls uint64 `json:"coalesced_sub_calls"`
}

// Stats snapshots the connection's counters.
func (c *Conn) Stats() Stats {
	direct, merged := c.stats.direct.Load(), c.stats.merged.Load()
	return Stats{
		Flushes:           direct + merged,
		FlushByTrigger:    map[string]uint64{flushDirect: direct, flushMerged: merged},
		SubCalls:          c.stats.subCalls.Load(),
		CoalescedSubCalls: c.stats.coalesced.Load(),
	}
}

// Merge folds other into s (FlushByTrigger summed key-wise).
func (s *Stats) Merge(other Stats) {
	s.DedupHits += other.DedupHits
	s.Flushes += other.Flushes
	s.SubCalls += other.SubCalls
	s.CoalescedSubCalls += other.CoalescedSubCalls
	if s.FlushByTrigger == nil {
		s.FlushByTrigger = make(map[string]uint64)
	}
	for k, v := range other.FlushByTrigger {
		s.FlushByTrigger[k] += v
	}
}

// registry tracks live Conns for process-wide aggregation.
var (
	regMu    sync.Mutex
	registry = make(map[*Conn]struct{})
)

func register(c *Conn) {
	regMu.Lock()
	registry[c] = struct{}{}
	regMu.Unlock()
}

func unregister(c *Conn) {
	regMu.Lock()
	delete(registry, c)
	regMu.Unlock()
}

// Aggregate merges the stats of every live Conn in the process.
func Aggregate() Stats {
	regMu.Lock()
	conns := make([]*Conn, 0, len(registry))
	for c := range registry {
		conns = append(conns, c)
	}
	regMu.Unlock()
	out := Stats{FlushByTrigger: make(map[string]uint64)}
	for _, c := range conns {
		out.Merge(c.Stats())
	}
	return out
}

func init() {
	expvar.Publish("datablinder_coalesce", expvar.Func(func() any { return Aggregate() }))
}
