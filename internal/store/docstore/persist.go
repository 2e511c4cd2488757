// WAL-backed persistence for the document store: per-mutation log records
// (put/delete) and snapshot-as-compaction.
//
// Frame format: one op byte, then collection and id as wirefmt strings,
// then (for puts) the blob. A snapshot payload concatenates
// length-prefixed put frames for every stored document.

package docstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"datablinder/internal/store/wal"
	"datablinder/internal/wirefmt"
)

// Op codes for persisted mutations.
const (
	dopPut byte = iota + 1
	dopDel
)

// DefaultCompactBytes is the sealed-log size that triggers a background
// snapshot+compaction when Options.CompactBytes is zero.
const DefaultCompactBytes = 64 << 20

// Options tunes persistence; the zero value is the default configuration.
type Options struct {
	// Fsync selects the durability policy (zero value: wal.FsyncInterval).
	Fsync wal.Policy
	// SyncInterval is the interval-policy flush cadence (0 = 1s).
	SyncInterval time.Duration
	// SegmentSize rotates log segments at this size (0 = 16 MiB).
	SegmentSize int64
	// Strict makes a torn log tail a fatal Open error.
	Strict bool
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

// Open returns a store persisted under dir, replaying any existing state.
func Open(dir string, options ...Options) (*Store, error) {
	var opts Options
	if len(options) > 0 {
		opts = options[0]
	}
	opts = opts.withDefaults()
	s := New()
	s.opts = opts
	l, err := wal.Open(dir, wal.Options{
		Fsync:        opts.Fsync,
		SyncInterval: opts.SyncInterval,
		SegmentSize:  opts.SegmentSize,
		Strict:       opts.Strict,
	})
	if err != nil {
		return nil, fmt.Errorf("docstore: %w", err)
	}
	if err := s.recover(l); err != nil {
		l.Close()
		return nil, err
	}
	s.wal = l
	s.seq = l.MaxSeq()
	return s, nil
}

// WAL exposes the underlying log for stats, benchmarks, and the planned
// replica catch-up protocol. Nil for in-memory stores.
func (s *Store) WAL() *wal.Log { return s.wal }

// claimLocked reserves the next commit sequence and registers an in-flight
// append; the caller holds mu exclusively.
func (s *Store) claimLocked() (uint64, bool) {
	if s.wal == nil {
		return 0, false
	}
	s.wg.Add(1)
	s.seq++
	return s.seq, true
}

// framePool recycles frame-encoding buffers on the persisted write path.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func (s *Store) logPut(seq uint64, collection, id string, blob []byte) error {
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], dopPut)
	b = wirefmt.AppendString(b, collection)
	b = wirefmt.AppendString(b, id)
	b = wirefmt.AppendBytes(b, blob)
	err := s.logFrame(seq, b)
	*bp = b
	framePool.Put(bp)
	return err
}

func (s *Store) logDel(seq uint64, collection, id string) error {
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], dopDel)
	b = wirefmt.AppendString(b, collection)
	b = wirefmt.AppendString(b, id)
	err := s.logFrame(seq, b)
	*bp = b
	framePool.Put(bp)
	return err
}

// logFrame appends one claimed frame outside the store mutex, so readers
// never wait behind a group commit.
func (s *Store) logFrame(seq uint64, frame []byte) error {
	err := s.wal.Append(seq, frame)
	s.wg.Done()
	if err != nil {
		return fmt.Errorf("docstore: wal append: %w", err)
	}
	s.maybeCompact()
	return nil
}

// applyFrame decodes one frame and mutates the collections. Recovery-only:
// the store is not yet shared, and the frame memory is owned, so decoded
// blobs are stored without copying.
func (s *Store) applyFrame(frame []byte) error {
	if len(frame) < 2 {
		return fmt.Errorf("docstore: malformed frame (%d bytes)", len(frame))
	}
	r := wirefmt.GetReader(frame[1:])
	defer wirefmt.PutReader(r)
	col := r.String()
	id := r.String()
	switch frame[0] {
	case dopPut:
		blob := r.Bytes()
		if err := r.Finish(); err != nil {
			return fmt.Errorf("docstore: malformed put frame: %w", err)
		}
		s.collection(col)[id] = blob
	case dopDel:
		if err := r.Finish(); err != nil {
			return fmt.Errorf("docstore: malformed delete frame: %w", err)
		}
		delete(s.collections[col], id)
	default:
		return fmt.Errorf("docstore: unknown op %d", frame[0])
	}
	return nil
}

// recover loads the snapshot and replays the log tail in sequence order.
func (s *Store) recover(l *wal.Log) error {
	snap, _, hasSnap, err := l.LoadSnapshot()
	if err != nil {
		return fmt.Errorf("docstore: %w", err)
	}
	if hasSnap {
		r := wirefmt.NewReader(snap)
		for r.Len() > 0 {
			frame := r.Bytes()
			if r.Err() != nil {
				break
			}
			if err := s.applyFrame(frame); err != nil {
				return err
			}
		}
		if err := r.Finish(); err != nil {
			return fmt.Errorf("docstore: corrupt snapshot: %w", err)
		}
	}
	type rec struct {
		seq   uint64
		frame []byte
	}
	var tail []rec
	if err := l.Replay(func(seq uint64, frame []byte) error {
		tail = append(tail, rec{seq, frame})
		return nil
	}); err != nil {
		return fmt.Errorf("docstore: %w", err)
	}
	// Appends race outside the store mutex, so file order can disagree
	// with commit order; replay in sequence order.
	sort.Slice(tail, func(a, b int) bool { return tail[a].seq < tail[b].seq })
	for _, rc := range tail {
		if err := s.applyFrame(rc.frame); err != nil {
			return fmt.Errorf("docstore: log record seq %d: %w", rc.seq, err)
		}
	}
	return nil
}

// serializeLocked encodes every collection as a snapshot payload; the
// caller holds mu (read or write).
func (s *Store) serializeLocked() []byte {
	b := make([]byte, 0, 1<<16)
	var frame []byte
	for name, col := range s.collections {
		for id, blob := range col {
			frame = append(frame[:0], dopPut)
			frame = wirefmt.AppendString(frame, name)
			frame = wirefmt.AppendString(frame, id)
			frame = wirefmt.AppendBytes(frame, blob)
			b = wirefmt.AppendBytes(b, frame)
		}
	}
	return b
}

// Snapshot writes a durable snapshot of every collection and drops the log
// segments it covers, bounding recovery to snapshot + tail. A no-op for
// stores created with New.
func (s *Store) Snapshot() error {
	if s.wal == nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.closed {
			return ErrClosed
		}
		return nil
	}
	// A read lock freezes the state: writers claim sequences under the
	// write lock, so everything with seq ≤ the captured value is applied.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ErrClosed
	}
	seq := s.seq
	payload := s.serializeLocked()
	s.mu.RUnlock()
	if err := s.wal.WriteSnapshot(seq, payload); err != nil {
		return fmt.Errorf("docstore: %w", err)
	}
	return nil
}

// maybeCompact kicks off one background snapshot when the sealed log has
// outgrown the configured bound.
func (s *Store) maybeCompact() {
	if s.opts.CompactBytes <= 0 || s.wal.SealedBytes() < s.opts.CompactBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		s.Snapshot() //nolint:errcheck // best-effort; retried on the next trigger
	}()
}

// Sync forces everything logged so far to stable storage.
func (s *Store) Sync() error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("docstore: sync: %w", err)
	}
	return nil
}

// Close marks the store closed. With persistence enabled it writes a final
// snapshot (so the next open recovers without replaying the tail) and
// closes the log. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var payload []byte
	seq := s.seq
	if s.wal != nil {
		payload = s.serializeLocked()
	}
	s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	s.wg.Wait()
	snapErr := s.wal.WriteSnapshot(seq, payload)
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("docstore: closing WAL: %w", err)
	}
	if snapErr != nil && !errors.Is(snapErr, wal.ErrClosed) {
		return fmt.Errorf("docstore: final snapshot: %w", snapErr)
	}
	return nil
}
