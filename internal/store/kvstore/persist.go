// WAL-backed persistence: the binary op codec, recovery (snapshot +
// parallel tail replay), and background snapshot/compaction.
//
// Frame format: one op byte followed by wirefmt fields, key first — the
// key leads so recovery can route a frame to its lock stripe without
// decoding the rest. A snapshot payload is a concatenation of
// length-prefixed frames describing the full state.

package kvstore

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"datablinder/internal/conc"
	"datablinder/internal/store/wal"
	"datablinder/internal/wirefmt"
)

// Op codes for persisted mutations.
const (
	opSet byte = iota + 1
	opDel
	opHSet
	opHDel
	opSAdd
	opSRem
	opIncr
	opZAdd
	opZRem
	opMax = opZRem
)

// DefaultCompactBytes is the sealed-log size that triggers a background
// snapshot+compaction when Options.CompactBytes is zero.
const DefaultCompactBytes = 64 << 20

// Options tunes persistence. The zero value is a sensible default
// (interval fsync, 16 MiB segments, compaction at 64 MiB of sealed log).
type Options struct {
	// Fsync selects the durability policy (zero value: wal.FsyncInterval).
	Fsync wal.Policy
	// SegmentSize rotates log segments at this size (0 = 16 MiB).
	SegmentSize int64
	// CompactBytes triggers a background snapshot once the sealed log
	// exceeds this size (0 = 64 MiB; negative disables auto-compaction).
	CompactBytes int64
}

func (o Options) withDefaults() Options {
	if o.CompactBytes == 0 {
		o.CompactBytes = DefaultCompactBytes
	}
	return o
}

// Open returns a store persisted under path (a directory of log segments
// and snapshots; created if missing), replaying any existing state.
func Open(path string, options ...Options) (*Store, error) {
	var opts Options
	if len(options) > 0 {
		opts = options[0]
	}
	opts = opts.withDefaults()
	s := New()
	s.opts = opts

	l, err := wal.Open(path, wal.Options{
		Fsync:       opts.Fsync,
		SegmentSize: opts.SegmentSize,
	})
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	if err := s.recover(l); err != nil {
		l.Close()
		return nil, fmt.Errorf("kvstore: %s: %w", path, err)
	}
	s.wal = l
	s.seq.Store(l.MaxSeq())
	return s, nil
}

// WAL exposes the underlying log for stats, benchmarks, and the planned
// replica catch-up protocol. Nil for in-memory stores.
func (s *Store) WAL() *wal.Log { return s.wal }

// claim reserves the next commit sequence and registers an in-flight
// append. Callers must hold the key's stripe lock: that is what orders
// same-key sequences, and what lets Close drain claimants by cycling the
// stripe locks. Returns ok=false when the store has no persistence.
func (s *Store) claim() (uint64, bool) {
	if s.wal == nil {
		return 0, false
	}
	s.wg.Add(1)
	return s.seq.Add(1), true
}

// logFrame appends one claimed frame to the log. Runs outside any stripe
// lock: under fsync=always this blocks on a group commit, and readers of
// the same stripe must not wait behind it.
func (s *Store) logFrame(seq uint64, frame []byte) error {
	err := s.wal.Append(seq, frame)
	if err == nil {
		// Before Done: a compaction started here joins wg while this
		// append still holds it, so Close waits for the snapshot write.
		s.maybeCompact()
	}
	s.wg.Done()
	if err != nil {
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	return nil
}

// framePool recycles frame-encoding buffers on the persisted write path.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func (s *Store) log1(seq uint64, op byte, key []byte) error {
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], op)
	b = wirefmt.AppendBytes(b, key)
	err := s.logFrame(seq, b)
	*bp = b
	framePool.Put(bp)
	return err
}

func (s *Store) log2(seq uint64, op byte, key, a []byte) error {
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], op)
	b = wirefmt.AppendBytes(b, key)
	b = wirefmt.AppendBytes(b, a)
	err := s.logFrame(seq, b)
	*bp = b
	framePool.Put(bp)
	return err
}

func (s *Store) log3(seq uint64, op byte, key, a, c []byte) error {
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], op)
	b = wirefmt.AppendBytes(b, key)
	b = wirefmt.AppendBytes(b, a)
	b = wirefmt.AppendBytes(b, c)
	err := s.logFrame(seq, b)
	*bp = b
	framePool.Put(bp)
	return err
}

func (s *Store) logIncr(seq uint64, key []byte, delta int64) error {
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], opIncr)
	b = wirefmt.AppendBytes(b, key)
	b = wirefmt.AppendInt64(b, delta)
	err := s.logFrame(seq, b)
	*bp = b
	framePool.Put(bp)
	return err
}

// mutation is one decoded frame. Its slices alias the frame: a and b are
// the field and value (opHSet), the field (opHDel), the member (opSAdd,
// opSRem), the value (opSet, in b) or the score and member (opZAdd, opZRem).
type mutation struct {
	op    byte
	key   []byte
	a, b  []byte
	delta int64
}

// decodeFrame decodes and checks one frame in full.
func decodeFrame(frame []byte) (mutation, error) {
	if len(frame) < 2 || frame[0] < opSet || frame[0] > opMax {
		return mutation{}, fmt.Errorf("malformed frame (%d bytes)", len(frame))
	}
	m := mutation{op: frame[0]}
	r := wirefmt.GetReader(frame[1:])
	defer wirefmt.PutReader(r)
	m.key = r.Bytes()
	switch m.op {
	case opSet:
		m.b = r.Bytes()
	case opHSet, opZAdd, opZRem:
		m.a, m.b = r.Bytes(), r.Bytes()
	case opHDel, opSAdd, opSRem:
		m.a = r.Bytes()
	case opIncr:
		m.delta = r.Int64()
	}
	if err := r.Finish(); err != nil {
		return mutation{}, fmt.Errorf("malformed op %d frame: %w", m.op, err)
	}
	return m, nil
}

// apply replays m onto sh. Recovery-only: the caller owns the shard
// exclusively, and the frame's backing memory, so slices are stored
// without copying.
func (sh *shard) apply(m mutation) {
	k := string(m.key)
	switch m.op {
	case opSet:
		sh.strings[k] = m.b
	case opDel:
		delete(sh.strings, k)
		delete(sh.hashes, k)
		delete(sh.sets, k)
		delete(sh.counters, k)
		delete(sh.zsets, k)
	case opHSet:
		h := sh.hashes[k]
		if h == nil {
			h = make(map[string][]byte)
			sh.hashes[k] = h
		}
		h[string(m.a)] = m.b
	case opHDel:
		delete(sh.hashes[k], string(m.a))
	case opSAdd:
		set := sh.sets[k]
		if set == nil {
			set = make(map[string]struct{})
			sh.sets[k] = set
		}
		set[string(m.a)] = struct{}{}
	case opSRem:
		delete(sh.sets[k], string(m.a))
	case opIncr:
		sh.counters[k] += m.delta
	case opZAdd:
		sh.zinsert(k, m.a, m.b)
	case opZRem:
		sh.zremove(k, m.a, m.b)
	}
}

// stripeOf checks a frame in full and returns its lock stripe. Every frame
// passes it before any is applied, and before Replay opens a segment of its
// own, so a directory in another record format fails Open with its files
// as they were.
func stripeOf(frame []byte) (int, error) {
	m, err := decodeFrame(frame)
	return shardIndex(m.key), err
}

// recover loads the snapshot and replays the log tail, bucketing frames by
// lock stripe and applying all stripes concurrently. Log records may sit
// out of sequence order in the file (appends race outside the stripe
// locks), so each stripe's tail is sorted by sequence before applying.
func (s *Store) recover(l *wal.Log) error {
	snap, snapSeq, hasSnap, err := l.LoadSnapshot()
	if err != nil {
		return err
	}
	var snapFrames [numShards][][]byte
	if hasSnap {
		r := wirefmt.NewReader(snap)
		for r.Len() > 0 {
			frame := r.Bytes()
			if r.Err() != nil {
				break
			}
			si, err := stripeOf(frame)
			if err != nil {
				return fmt.Errorf("snapshot seq %d: %w", snapSeq, err)
			}
			snapFrames[si] = append(snapFrames[si], frame)
		}
		if err := r.Finish(); err != nil {
			return fmt.Errorf("corrupt snapshot: %w", err)
		}
	}
	type rec struct {
		seq   uint64
		frame []byte
	}
	var tail [numShards][]rec
	if err := l.Replay(func(seq uint64, frame []byte) error {
		si, err := stripeOf(frame)
		if err != nil {
			return err
		}
		tail[si] = append(tail[si], rec{seq, frame})
		return nil
	}); err != nil {
		return err
	}
	return conc.ForEach(context.Background(), numShards, 0, func(_ context.Context, i int) error {
		sh := &s.shards[i]
		for _, frame := range snapFrames[i] {
			m, _ := decodeFrame(frame) // checked by stripeOf
			sh.apply(m)
		}
		t := tail[i]
		sort.Slice(t, func(a, b int) bool { return t[a].seq < t[b].seq })
		for _, rc := range t {
			m, _ := decodeFrame(rc.frame)
			sh.apply(m)
		}
		return nil
	})
}

// serializeLocked encodes the full store state as a snapshot payload. The
// caller holds every stripe lock.
func (s *Store) serializeLocked() []byte {
	b := make([]byte, 0, 1<<16)
	var frame []byte
	for i := range s.shards {
		sh := &s.shards[i]
		for k, v := range sh.strings {
			frame = append(frame[:0], opSet)
			frame = wirefmt.AppendString(frame, k)
			frame = wirefmt.AppendBytes(frame, v)
			b = wirefmt.AppendBytes(b, frame)
		}
		for k, h := range sh.hashes {
			for f, v := range h {
				frame = append(frame[:0], opHSet)
				frame = wirefmt.AppendString(frame, k)
				frame = wirefmt.AppendString(frame, f)
				frame = wirefmt.AppendBytes(frame, v)
				b = wirefmt.AppendBytes(b, frame)
			}
		}
		for k, set := range sh.sets {
			for m := range set {
				frame = append(frame[:0], opSAdd)
				frame = wirefmt.AppendString(frame, k)
				frame = wirefmt.AppendString(frame, m)
				b = wirefmt.AppendBytes(b, frame)
			}
		}
		for k, v := range sh.counters {
			frame = append(frame[:0], opIncr)
			frame = wirefmt.AppendString(frame, k)
			frame = wirefmt.AppendInt64(frame, v)
			b = wirefmt.AppendBytes(b, frame)
		}
		for k, z := range sh.zsets {
			for _, e := range z {
				frame = append(frame[:0], opZAdd)
				frame = wirefmt.AppendString(frame, k)
				frame = wirefmt.AppendBytes(frame, e.score)
				frame = wirefmt.AppendBytes(frame, e.member)
				b = wirefmt.AppendBytes(b, frame)
			}
		}
	}
	return b
}

// Compact writes a durable snapshot of the current state and drops the log
// segments it covers, bounding recovery to snapshot + tail. The store is
// frozen (every stripe locked) only while serializing; the snapshot write
// itself runs concurrently with new appends.
func (s *Store) Compact() error {
	if s.wal == nil {
		return nil
	}
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	if s.closed.Load() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
		return ErrClosed
	}
	// Every claimed sequence's mutation is applied under its stripe lock,
	// so with all stripes held the state reflects exactly seq ≤ seqNow.
	seqNow := s.seq.Load()
	payload := s.serializeLocked()
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	if err := s.wal.WriteSnapshot(seqNow, payload); err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	return nil
}

// maybeCompact kicks off one background compaction when the sealed log has
// outgrown the configured bound.
func (s *Store) maybeCompact() {
	if s.opts.CompactBytes <= 0 || s.wal.SealedBytes() < s.opts.CompactBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.compacting.Store(false)
		s.Compact() //nolint:errcheck // best-effort; retried on the next trigger
	}()
}
