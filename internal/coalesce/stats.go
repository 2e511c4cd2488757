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

// Flush trigger names (keys of Stats.FlushByTrigger).
const (
	trigSize   = "size"   // sub-call cap reached
	trigBytes  = "bytes"  // payload byte cap reached
	trigWindow = "window" // window timer expired
	trigGather = "gather" // every active caller has contributed
	trigDrain  = "drain"  // explicit Drain/Close
)

var triggers = []string{trigSize, trigBytes, trigWindow, trigGather, trigDrain}

// histBounds are the inclusive upper bounds of the batch-size histogram
// buckets; the last bucket is unbounded.
var histBounds = []int{1, 2, 4, 8, 16, 32, 64}

// histLabels renders bucket i's range ("1", "2", "3-4", ..., "65+").
func histLabels() []string {
	labels := make([]string, len(histBounds)+1)
	lo := 1
	for i, hi := range histBounds {
		if lo == hi {
			labels[i] = itoa(hi)
		} else {
			labels[i] = itoa(lo) + "-" + itoa(hi)
		}
		lo = hi + 1
	}
	labels[len(histBounds)] = itoa(lo) + "+"
	return labels
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

var histNames = histLabels()

// counters are one Conn's live counters.
type counters struct {
	enqueued    atomic.Uint64
	passthrough atomic.Uint64
	flushes     [5]atomic.Uint64 // indexed like triggers
	subCalls    atomic.Uint64
	coalesced   atomic.Uint64 // sub-calls that shared their flush with others
	hist        [8]atomic.Uint64
	maxDepth    atomic.Uint64
}

func (s *counters) recordFlush(trigger string, size int) {
	for i, t := range triggers {
		if t == trigger {
			s.flushes[i].Add(1)
			break
		}
	}
	s.subCalls.Add(uint64(size))
	if size > 1 {
		s.coalesced.Add(uint64(size))
	}
	for i, hi := range histBounds {
		if size <= hi {
			s.hist[i].Add(1)
			return
		}
	}
	s.hist[len(histBounds)].Add(1)
}

// Stats is a point-in-time snapshot of one Conn (or, via Aggregate, of
// every live Conn in the process).
type Stats struct {
	// Enqueued counts sub-calls that entered the coalescer; Passthrough
	// counts calls routed around it (reads, unknown methods, disabled).
	Enqueued    uint64 `json:"enqueued"`
	Passthrough uint64 `json:"passthrough"`
	// DedupHits is always 0: reads are no longer queued, so none joins
	// another. The field stays for readers built against it.
	DedupHits uint64 `json:"dedup_hits"`
	// Flushes is the total flush count; FlushByTrigger splits it by cause.
	Flushes        uint64            `json:"flushes"`
	FlushByTrigger map[string]uint64 `json:"flush_by_trigger"`
	// SubCalls counts sub-calls sent; CoalescedSubCalls the subset that
	// shared a flush with at least one other sub-call (the merge rate).
	SubCalls          uint64 `json:"sub_calls"`
	CoalescedSubCalls uint64 `json:"coalesced_sub_calls"`
	// QueueDepth is the instantaneous queue length; MaxQueueDepth the
	// high-water mark.
	QueueDepth    int    `json:"queue_depth"`
	MaxQueueDepth uint64 `json:"max_queue_depth"`
	// BatchSizeHist buckets flushes by sub-call count.
	BatchSizeHist map[string]uint64 `json:"batch_size_hist"`
}

// Stats snapshots the connection's counters.
func (c *Conn) Stats() Stats {
	s := Stats{
		Enqueued:          c.stats.enqueued.Load(),
		Passthrough:       c.stats.passthrough.Load(),
		SubCalls:          c.stats.subCalls.Load(),
		CoalescedSubCalls: c.stats.coalesced.Load(),
		MaxQueueDepth:     c.stats.maxDepth.Load(),
		FlushByTrigger:    make(map[string]uint64, len(triggers)),
		BatchSizeHist:     make(map[string]uint64, len(histNames)),
	}
	for i, t := range triggers {
		if n := c.stats.flushes[i].Load(); n > 0 {
			s.FlushByTrigger[t] = n
			s.Flushes += n
		}
	}
	for i, name := range histNames {
		if n := c.stats.hist[i].Load(); n > 0 {
			s.BatchSizeHist[name] = n
		}
	}
	c.mu.Lock()
	s.QueueDepth = len(c.pend)
	c.mu.Unlock()
	return s
}

// Merge folds other into s (map fields summed key-wise; MaxQueueDepth is
// the maximum of the two).
func (s *Stats) Merge(other Stats) {
	s.Enqueued += other.Enqueued
	s.Passthrough += other.Passthrough
	s.DedupHits += other.DedupHits
	s.Flushes += other.Flushes
	s.SubCalls += other.SubCalls
	s.CoalescedSubCalls += other.CoalescedSubCalls
	s.QueueDepth += other.QueueDepth
	if other.MaxQueueDepth > s.MaxQueueDepth {
		s.MaxQueueDepth = other.MaxQueueDepth
	}
	if s.FlushByTrigger == nil {
		s.FlushByTrigger = make(map[string]uint64)
	}
	for k, v := range other.FlushByTrigger {
		s.FlushByTrigger[k] += v
	}
	if s.BatchSizeHist == nil {
		s.BatchSizeHist = make(map[string]uint64)
	}
	for k, v := range other.BatchSizeHist {
		s.BatchSizeHist[k] += v
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
	var out Stats
	out.FlushByTrigger = make(map[string]uint64)
	out.BatchSizeHist = make(map[string]uint64)
	for _, c := range conns {
		out.Merge(c.Stats())
	}
	return out
}

func init() {
	expvar.Publish("datablinder_coalesce", expvar.Func(func() any { return Aggregate() }))
}
