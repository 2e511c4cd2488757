// Package obs is the process's one metrics surface. It has a fixed-bucket
// Histogram, the Set of a subsystem's live instances, and the expvar
// publication of both (the /debug/vars page the -pprof listener serves).
// Plain counters are atomic.Uint64 fields of the struct that owns them.
package obs

import (
	"expvar"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Publish exports snapshot under the expvar name; every read of
// /debug/vars calls it afresh. Like expvar.Publish, it panics if name is
// taken.
func Publish(name string, snapshot func() any) {
	expvar.Publish(name, expvar.Func(snapshot))
}

// Buckets are the bounds of a histogram and their labels, built once and
// shared by every Histogram over them. Bucket i counts the values v with
// bounds[i-1] < v <= bounds[i]; one overflow bucket counts the values
// above the last bound.
type Buckets struct {
	bounds []uint64
	labels []string
}

// NewBuckets builds the buckets of the given ascending, inclusive upper
// bounds. A bucket's label is its bound with unit appended, prefixed "<="
// unless the bucket holds that one value; the overflow bucket's is ">" and
// the last bound: "<=50us" … ">10000us", or "1", "2", "<=4" … ">64".
func NewBuckets(unit string, bounds ...uint64) *Buckets {
	b := &Buckets{bounds: bounds, labels: make([]string, len(bounds)+1)}
	lo := uint64(1)
	for i, hi := range bounds {
		b.labels[i] = strconv.FormatUint(hi, 10) + unit
		if lo != hi {
			b.labels[i] = "<=" + b.labels[i]
		}
		lo = hi + 1
	}
	b.labels[len(bounds)] = ">" + strconv.FormatUint(bounds[len(bounds)-1], 10) + unit
	return b
}

// Histogram counts observations into the buckets it was made with. It is
// safe for concurrent use.
type Histogram struct {
	b      *Buckets
	counts []atomic.Uint64
}

// NewHistogram returns an empty histogram over b.
func NewHistogram(b *Buckets) Histogram {
	return Histogram{b: b, counts: make([]atomic.Uint64, len(b.bounds)+1)}
}

// Observe counts v in the first bucket whose bound is at least v.
func (h Histogram) Observe(v uint64) {
	i, _ := slices.BinarySearch(h.b.bounds, v)
	h.counts[i].Add(1)
}

// AddTo adds every non-empty bucket's count to m under the bucket's
// label, so one map sums the histograms of many instances.
func (h Histogram) AddTo(m map[string]uint64) {
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			m[h.b.labels[i]] += n
		}
	}
}

// Set is the live instances of one subsystem: an instance joins when it is
// built and leaves when it closes. Its expvar is the sum of the members
// present when it is read.
type Set[T any] struct {
	mu     sync.Mutex
	joined []*T
}

// NewSet returns an empty set published under the expvar name. A read
// calls sum with the members of that moment, in the order they joined; sum
// adds their counters metric by metric into one snapshot. A member that
// leaves during a read may or may not be in it.
func NewSet[T, S any](name string, sum func(members ...*T) S) *Set[T] {
	s := &Set[T]{}
	Publish(name, func() any { return sum(s.members()...) })
	return s
}

// Join adds m to the set.
func (s *Set[T]) Join(m *T) {
	s.mu.Lock()
	s.joined = append(s.joined, m)
	s.mu.Unlock()
}

// Leave removes m from the set; leaving twice is harmless.
func (s *Set[T]) Leave(m *T) {
	s.mu.Lock()
	if i := slices.Index(s.joined, m); i >= 0 {
		s.joined = slices.Delete(s.joined, i, i+1)
	}
	s.mu.Unlock()
}

// members returns the current members, in the order they joined.
func (s *Set[T]) members() []*T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.joined)
}
