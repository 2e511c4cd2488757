package spi

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"datablinder/internal/cloud/ring"
	"datablinder/internal/model"
	"datablinder/internal/transport"
)

// Mutation is one cloud write of a write set.
type Mutation struct {
	// Route is the ring routing key. When it is empty the tactic placed the
	// mutation itself and Shard names the owner.
	Route string
	Shard int
	// Field is the document field the mutation indexes, "" for a structure
	// that spans fields.
	Field           string
	Service, Method string
	Args            any
}

// WriteSet collects the cloud mutations of one engine request, in the order
// the tactics produced them, so that what travels together is decided by
// the request and not by goroutine timing: Flush ships exactly one batch
// per owning shard.
type WriteSet struct {
	Mutations []Mutation
	commits   []func() error
	failures  []func() error
}

// Add appends one mutation.
func (ws *WriteSet) Add(m Mutation) { ws.Mutations = append(ws.Mutations, m) }

// OnCommit registers a local state change that makes the prepared write
// current (BIEX's and Sophos's per-document version). Flush runs the
// registered steps in order before anything ships; a write set that is
// dropped instead — the document id turned out to be taken — leaves the
// state a search reads untouched.
func (ws *WriteSet) OnCommit(f func() error) { ws.commits = append(ws.commits, f) }

// OnFailure registers a compensation Flush runs when any part of the set
// fails, whichever tactic's mutation it was: cells that may have landed are
// superseded rather than rolled back.
func (ws *WriteSet) OnFailure(f func() error) { ws.failures = append(ws.failures, f) }

// Flush commits the set and ships it: one transport.CallBatch per owning
// shard, mutations in Add order within a batch. The calling goroutine sends
// the first batch and hands each of the others to spawn, so they are in
// flight together. Batches do not cancel each other, so the reported
// failure does not depend on timing:
// failed is the index of the first failed mutation of the lowest failing
// shard, or -1 when a commit step failed (and when err is nil). On any
// failure every OnFailure hook has run before Flush returns.
func (ws *WriteSet) Flush(ctx context.Context, shards *ring.Ring, spawn func(func())) (failed int, err error) {
	failed, err = ws.ship(ctx, shards, spawn)
	if err == nil {
		return -1, nil
	}
	for _, f := range ws.failures {
		if herr := f(); herr != nil {
			err = fmt.Errorf("%w (compensation also failed: %v)", err, herr)
		}
	}
	return failed, err
}

// shardBatch is one shard's share of a write set and how sending it went.
type shardBatch struct {
	n      int // how many of the set's mutations the shard owns
	calls  []transport.BatchCall
	failed int // index into calls of the first failure
	err    error
}

func (ws *WriteSet) ship(ctx context.Context, shards *ring.Ring, spawn func(func())) (int, error) {
	for _, f := range ws.commits {
		if err := f(); err != nil {
			return -1, err
		}
	}
	owner := make([]int, len(ws.Mutations))
	batches := make([]shardBatch, shards.N())
	for i, m := range ws.Mutations {
		owner[i] = m.Shard
		if m.Route != "" {
			owner[i] = shards.Shard(m.Route)
		}
		batches[owner[i]].n++
	}
	for i, m := range ws.Mutations {
		b := &batches[owner[i]]
		if b.calls == nil {
			b.calls = make([]transport.BatchCall, 0, b.n)
		}
		b.calls = append(b.calls, transport.BatchCall{Service: m.Service, Method: m.Method, Args: m.Args})
	}
	var wg sync.WaitGroup
	inline := -1 // the batch the calling goroutine sends itself
	for s := range batches {
		b := &batches[s]
		switch {
		case b.calls == nil:
		case inline < 0:
			inline = s
		default:
			wg.Add(1)
			spawn(func() {
				defer wg.Done()
				b.send(ctx, shards.Conn(s))
			})
		}
	}
	if inline >= 0 {
		batches[inline].send(ctx, shards.Conn(inline))
		wg.Wait()
	}
	for s := range batches {
		if b := &batches[s]; b.err != nil {
			return ws.nth(owner, s, b.failed), b.err
		}
	}
	return -1, nil
}

// send ships the batch over conn and records the first call that failed. A
// transport-level failure fails the whole batch and is charged to its first
// call.
func (b *shardBatch) send(ctx context.Context, conn transport.Conn) {
	results, err := transport.CallBatch(ctx, conn, b.calls)
	if err != nil {
		b.err = err
		return
	}
	for j, r := range results {
		if r.Err != nil {
			b.failed, b.err = j, r.Err
			return
		}
	}
}

// nth returns the index of shard's j'th mutation.
func (ws *WriteSet) nth(owner []int, shard, j int) int {
	for i, s := range owner {
		if s == shard {
			if j == 0 {
				return i
			}
			j--
		}
	}
	return -1
}

// Apply runs one tactic write outside the engine — prepare, then flush over
// shards — for callers that drive a tactic directly (tactic tests, the
// hard-coded benchmark baseline).
func Apply(ctx context.Context, shards *ring.Ring, t Tactic, op model.Op, docID string, values map[string]any) error {
	fields := make([]string, 0, len(values))
	for f := range values {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	var ws WriteSet
	if err := t.Prepare(&ws, op, docID, fields, values); err != nil {
		return err
	}
	_, err := ws.Flush(ctx, shards, func(f func()) { go f() })
	return err
}
