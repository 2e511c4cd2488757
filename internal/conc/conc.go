// Package conc provides the small concurrency primitives the middleware
// core is built from: an error group in the style of
// golang.org/x/sync/errgroup (not imported — the repository is
// standard-library-only), with first-error context cancellation and an
// optional concurrency limit; a pool of reused goroutines; and a striped
// lock.
package conc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Group runs a set of goroutines and collects the first error. Associated
// with a context via WithContext, the first failure cancels the context so
// sibling tasks (RPCs in flight, decrypt workers) stop early.
type Group struct {
	cancel context.CancelCauseFunc

	wg  sync.WaitGroup
	sem chan struct{}

	once sync.Once
	err  error
}

// WithContext returns a Group and a derived context that is cancelled the
// first time a task fails or Wait returns.
func WithContext(ctx context.Context) (*Group, context.Context) {
	ctx, cancel := context.WithCancelCause(ctx)
	return &Group{cancel: cancel}, ctx
}

// SetLimit bounds the number of concurrently running tasks. It must be
// called before the first Go. n <= 0 means unbounded.
func (g *Group) SetLimit(n int) {
	if n > 0 {
		g.sem = make(chan struct{}, n)
	}
}

// Go runs f on a new goroutine, blocking first if the concurrency limit is
// reached. The first non-nil error wins and cancels the group context.
func (g *Group) Go(f func() error) {
	if g.sem != nil {
		g.sem <- struct{}{}
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if g.sem != nil {
			defer func() { <-g.sem }()
		}
		if err := f(); err != nil {
			g.once.Do(func() {
				g.err = err
				if g.cancel != nil {
					g.cancel(err)
				}
			})
		}
	}()
}

// Wait blocks until every task returned, then reports the first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	if g.cancel != nil {
		g.cancel(nil)
	}
	return g.err
}

// ForEach runs f(i) for every i in [0, n) with at most limit concurrent
// (unbounded if limit <= 0), cancelling the rest on first error.
func ForEach(ctx context.Context, n, limit int, f func(ctx context.Context, i int) error) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return f(ctx, 0)
	}
	g, gctx := WithContext(ctx)
	g.SetLimit(limit)
	for i := 0; i < n; i++ {
		i := i
		g.Go(func() error {
			if err := gctx.Err(); err != nil {
				return fmt.Errorf("conc: cancelled before task %d: %w", i, context.Cause(gctx))
			}
			return f(gctx, i)
		})
	}
	return g.Wait()
}

// Pool runs functions on goroutines that outlive them. A goroutine that has
// finished one function parks and takes the next, so nothing is spawned or
// torn down per call and the stack the work needs is already grown — for
// short functions with deep call chains (send a frame, execute a request)
// that is most of what a plain go statement costs. It bounds nothing: with
// no goroutine parked, Go starts one. Waiting for a function to finish is
// the caller's business.
type Pool struct {
	// tasks is unbuffered: a send succeeds only while a goroutine is parked
	// on it, which is exactly when there is one to reuse.
	tasks   chan func()
	stop    chan struct{}
	maxIdle int32
	idle    atomic.Int32
}

// NewPool returns a pool that keeps at most maxIdle goroutines parked.
func NewPool(maxIdle int) *Pool {
	return &Pool{tasks: make(chan func()), stop: make(chan struct{}), maxIdle: int32(maxIdle)}
}

// Go runs f on a parked goroutine if there is one, on a new one otherwise.
func (p *Pool) Go(f func()) {
	select {
	case p.tasks <- f:
	default:
		go p.run(f)
	}
}

func (p *Pool) run(f func()) {
	for {
		f()
		if p.idle.Add(1) > p.maxIdle {
			p.idle.Add(-1)
			return
		}
		select {
		case f = <-p.tasks:
			p.idle.Add(-1)
		case <-p.stop:
			p.idle.Add(-1)
			return
		}
	}
}

// Close releases the parked goroutines; those still running a function exit
// when it returns. Go keeps working after Close, without reuse.
func (p *Pool) Close() { close(p.stop) }
