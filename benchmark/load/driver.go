package load

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one completed or failed operation of a measured window.
type Sample struct {
	Class Class
	End   time.Duration // completion, from the start of the window
	Lat   time.Duration // closed loop: call to return; open loop: due to return
	Late  time.Duration // open loop: how long after it was due the generator sent it
	Err   error
}

// Window is the outcome of one measured run.
type Window struct {
	Samples    []Sample
	Elapsed    time.Duration
	Shed       int // open loop: arrivals refused at the in-flight cap
	BacklogMax int // open loop: most operations in flight at once

	acked map[int][]bool // stream -> operation index -> an insert that completed
}

// Acked reports whether operation i of a stream was an insert that completed
// without error.
func (w *Window) Acked(stream, i int) bool {
	a := w.acked[stream]
	return i < len(a) && a[i]
}

// Preload inserts the corpus's preloaded documents with Callers writers.
func Preload(ctx context.Context, t Target, g *Gen) error {
	errs := make([]error, Callers)
	var wg sync.WaitGroup
	for c := 0; c < Callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < g.Preload(); i += Callers {
				if _, err := t.Insert(ctx, g.PreloadDoc(i)); err != nil {
					errs[c] = fmt.Errorf("preloading document %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Warmup runs a few untimed operations of the mix so that lazily built state
// (key caches, Paillier randomness pool, plan lookups) exists before timing.
// Its inserts go to a stream of their own; their number and plaintext size
// are returned for the post-run count and storage checks.
func Warmup(ctx context.Context, t Target, g *Gen, n int) (inserted int, bytes int64, err error) {
	for i := 0; i < n; i++ {
		op := g.Op(streamWarm, i)
		if err := op.Do(ctx, t); err != nil {
			return 0, 0, fmt.Errorf("warm-up operation %d (%s): %w", i, op.Class, err)
		}
		if op.Class == Insert {
			inserted++
			bytes += DocBytes(op.Doc)
		}
	}
	return inserted, bytes, nil
}

// RunClosed drives t with callers goroutines, each issuing its own seeded
// stream (first, first+1, ...) one operation at a time, until d has passed.
func RunClosed(ctx context.Context, t Target, g *Gen, first, callers int, d time.Duration) *Window {
	per := make([][]Sample, callers)
	acked := make([][]bool, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				op := g.Op(first+c, i)
				err := op.Do(ctx, t)
				end := time.Now()
				per[c] = append(per[c], Sample{Class: op.Class, End: end.Sub(start), Lat: end.Sub(t0), Err: err})
				acked[c] = append(acked[c], op.Class == Insert && err == nil)
			}
		}(c)
	}
	wg.Wait()
	win := &Window{Elapsed: time.Since(start), acked: make(map[int][]bool)}
	for c := range per {
		win.Samples = append(win.Samples, per[c]...)
		win.acked[first+c] = acked[c]
	}
	return win
}

// RunOpen drives t with Poisson arrivals at rate per second for d: one
// scheduling goroutine, one goroutine per arrival, at most MaxInFlight in
// flight. Every operation is timed from when it was due.
func RunOpen(ctx context.Context, t Target, g *Gen, stream int, rate float64, d time.Duration) *Window {
	// Arrival times come from the seed alone, so both commits see the same
	// schedule: rate*d points uniform on the window, in order, which is a
	// Poisson process given its count. Fixing the count keeps the offered
	// load the same for every seed.
	r := newRNG(g.seed, streamArrivals, stream)
	due := make([]time.Duration, int(rate*d.Seconds()))
	for i := range due {
		due[i] = time.Duration(r.float() * float64(d))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	samples := make([]Sample, len(due))
	acked := make([]bool, len(due))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	win := &Window{acked: map[int][]bool{stream: acked}}
	start := time.Now()
	for i, at := range due {
		if wait := at - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if n := inflight.Add(1); n > MaxInFlight {
			inflight.Add(-1)
			win.Shed++
			samples[i] = Sample{Class: g.Op(stream, i).Class, End: time.Since(start), Err: fmt.Errorf("shed: %d operations in flight", MaxInFlight)}
			continue
		} else if int(n) > win.BacklogMax {
			win.BacklogMax = int(n)
		}
		wg.Add(1)
		go func(i int, at, sent time.Duration) {
			defer wg.Done()
			op := g.Op(stream, i)
			err := op.Do(ctx, t)
			end := time.Since(start)
			inflight.Add(-1)
			samples[i] = Sample{Class: op.Class, End: end, Lat: end - at, Late: sent - at, Err: err}
			acked[i] = op.Class == Insert && err == nil
		}(i, at, time.Since(start))
	}
	wg.Wait()
	win.Elapsed = time.Since(start)
	win.Samples = samples
	return win
}

// Failures returns the window's failed operations' errors.
func (w *Window) Failures() []error {
	var out []error
	for _, s := range w.Samples {
		if s.Err != nil {
			out = append(out, fmt.Errorf("%s: %w", s.Class, s.Err))
		}
	}
	return out
}

// AckedInserts lists (stream, index) of every acknowledged insert.
func (w *Window) AckedInserts() [][2]int {
	streams := make([]int, 0, len(w.acked))
	for s := range w.acked {
		streams = append(streams, s)
	}
	sort.Ints(streams)
	var out [][2]int
	for _, s := range streams {
		for i, ok := range w.acked[s] {
			if ok {
				out = append(out, [2]int{s, i})
			}
		}
	}
	return out
}

// Millis returns the successful operations' latencies in milliseconds,
// sorted; class NumClasses selects every class.
func (w *Window) Millis(class Class) []float64 {
	var out []float64
	for _, s := range w.Samples {
		if s.Err == nil && (class == NumClasses || s.Class == class) {
			out = append(out, float64(s.Lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// LateMillis returns how late the generator sent each operation, sorted.
func (w *Window) LateMillis() []float64 {
	var out []float64
	for _, s := range w.Samples {
		if s.Err == nil {
			out = append(out, float64(s.Late)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// Quantile is the q-quantile of sorted values, linearly interpolated; 0 for
// no values.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
