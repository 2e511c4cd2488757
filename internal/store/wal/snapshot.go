// Snapshots and compaction. A snapshot is a single framed record (the
// same encoding as log records, so the CRC machinery is shared) whose
// sequence is the covering sequence S: every store mutation with seq ≤ S
// is reflected in the payload. It is written to a temp file, fsynced,
// atomically renamed to snap-<S>.snap, and the directory fsynced — a
// crash leaves either the old snapshot or the new one, never a torn one.
//
// Compaction follows from the covering property alone: any *sealed*
// segment whose highest record sequence is ≤ S holds only mutations the
// snapshot already reflects, so it is deleted. The store seals the active
// segment (Rotate) while its writers are frozen at S, so that segment is
// dropped too. Records with seq ≤ S that land in later segments (an append
// that raced the snapshot freeze) are skipped individually during replay. Recovery therefore replays
// snapshot + tail instead of the whole history.

package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// LoadSnapshot returns the newest snapshot's payload and covering
// sequence, or ok=false when the log has none. Call before Replay.
func (l *Log) LoadSnapshot() (payload []byte, seq uint64, ok bool, err error) {
	l.mu.Lock()
	name := l.snapName
	l.mu.Unlock()
	if name == "" {
		return nil, 0, false, nil
	}
	f, err := os.Open(filepath.Join(l.dir, name))
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: opening snapshot: %w", err)
	}
	defer f.Close()
	rr := NewRecordReader(f)
	seq, payload, err = rr.Next()
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: snapshot %s: %w", name, err)
	}
	if _, _, err := rr.Next(); err != io.EOF {
		return nil, 0, false, fmt.Errorf("%w: snapshot %s has trailing data", ErrTorn, name)
	}
	l.mu.Lock()
	l.snapSeq = seq
	if seq > l.maxSeq {
		l.maxSeq = seq
	}
	l.mu.Unlock()
	return payload, seq, true, nil
}

// Replay streams every record with seq greater than the loaded snapshot's
// covering sequence to apply, in file order, then opens a fresh active
// segment and enables appends. A torn tail of the last segment is
// truncated at the last CRC-valid record; corruption in any earlier
// segment is always fatal. Replay must be called exactly once, after
// LoadSnapshot.
func (l *Log) Replay(apply func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.ready {
		l.mu.Unlock()
		return fmt.Errorf("wal: Replay called twice")
	}
	files := l.segFiles
	l.segFiles = nil
	snapSeq := l.snapSeq
	l.mu.Unlock()

	t0 := time.Now()
	var replayed uint64
	var sealed []segment
	for i, name := range files {
		info, n, err := l.replaySegment(name, i == len(files)-1, snapSeq, apply)
		if err != nil {
			return err
		}
		replayed += n
		if info.size == 0 {
			// A zero-length segment (crash between create and first flush)
			// carries nothing; drop the file.
			os.Remove(filepath.Join(l.dir, name))
			continue
		}
		sealed = append(sealed, info)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	// Segments fully covered by the snapshot are dead history.
	kept := sealed[:0]
	for _, s := range sealed {
		if s.last > l.maxSeq {
			l.maxSeq = s.last
		}
		if s.last <= snapSeq && l.snapName != "" {
			os.Remove(filepath.Join(l.dir, s.name))
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	if err := l.openSegmentLocked(); err != nil {
		return err
	}
	l.ready = true
	if l.opts.Fsync == FsyncInterval {
		l.done = make(chan struct{})
		go l.runIntervalSync()
	}
	l.recoveryNanos.Store(uint64(time.Since(t0).Nanoseconds()))
	l.recoveryRecords.Store(replayed)
	return nil
}

// replaySegment validates and applies one segment, returning its metadata
// (with size reflecting any tail truncation) and the applied record count.
func (l *Log) replaySegment(name string, last bool, snapSeq uint64, apply func(uint64, []byte) error) (segment, uint64, error) {
	path := filepath.Join(l.dir, name)
	f, err := os.Open(path)
	if err != nil {
		return segment{}, 0, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	rr := NewRecordReader(f)
	info := segment{name: name}
	var applied uint64
	for {
		seq, payload, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !last {
				return segment{}, 0, fmt.Errorf("wal: segment %s at offset %d: %w", name, rr.Offset(), err)
			}
			// Torn tail of the newest segment: a crash mid-append. Keep the
			// valid prefix, drop the rest.
			if terr := os.Truncate(path, rr.Offset()); terr != nil {
				return segment{}, 0, fmt.Errorf("wal: truncating torn tail of %s: %w", name, terr)
			}
			l.tornTails.Add(1)
			break
		}
		if seq > info.last {
			info.last = seq
		}
		if seq <= snapSeq {
			continue
		}
		if err := apply(seq, payload); err != nil {
			return segment{}, 0, fmt.Errorf("wal: applying record seq %d of %s: %w", seq, name, err)
		}
		applied++
	}
	info.size = rr.Offset()
	return info, applied, nil
}

// WriteSnapshot durably writes a snapshot covering sequence seq, then
// deletes every sealed segment it fully covers. The caller guarantees the
// payload reflects every mutation with sequence ≤ seq (the stores freeze
// their stripes, capture seq, and serialize before calling). Safe to run
// concurrently with appends.
func (l *Log) WriteSnapshot(seq uint64, payload []byte) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if !l.ready {
		l.mu.Unlock()
		return fmt.Errorf("wal: WriteSnapshot before Replay")
	}
	l.mu.Unlock()

	t0 := time.Now()
	name := fmt.Sprintf("snap-%016d.snap", seq)
	tmp := filepath.Join(l.dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot: %w", err)
	}
	rec := AppendRecord(make([]byte, 0, len(payload)+20), seq, payload)
	if _, err := f.Write(rec); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: committing snapshot: %w", err)
	}
	syncDir(l.dir)

	l.mu.Lock()
	old := l.snapName
	l.snapName = name
	if seq > l.snapSeq {
		l.snapSeq = seq
	}
	if seq > l.maxSeq {
		l.maxSeq = seq
	}
	// Compact: drop sealed segments whose every record the snapshot covers.
	kept := l.sealed[:0]
	var dropped []string
	for _, s := range l.sealed {
		if s.last <= seq {
			dropped = append(dropped, s.name)
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	l.mu.Unlock()

	for _, n := range dropped {
		os.Remove(filepath.Join(l.dir, n))
	}
	if old != "" && old != name {
		os.Remove(filepath.Join(l.dir, old))
	}
	l.snapshots.Add(1)
	l.snapshotNanos.Store(uint64(time.Since(t0).Nanoseconds()))
	l.compacted.Add(uint64(len(dropped)))
	return nil
}

// syncDir fsyncs a directory so a just-renamed file is durable under its
// new name. Best-effort: some platforms reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}

// SealedBytes returns the total size of the sealed segments — the "dead
// weight" recovery would replay, which the stores watch to trigger
// background snapshot+compaction.
func (l *Log) SealedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.sealed {
		n += s.size
	}
	return n
}
