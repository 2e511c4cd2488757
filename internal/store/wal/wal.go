// Package wal is the persistence engine under every kvstore (a cloud
// shard's one store of indexes and documents, and gateway state): a segmented
// append-only log of length-prefixed binary records with per-record
// CRC32C, a group-commit fsync stage, point-in-time snapshots with segment
// compaction, and crash-tolerant recovery that truncates a torn tail at
// the last valid record.
//
// # Durability model
//
// Records carry the owning store's commit sequence. The store claims the
// sequence while holding its stripe lock (fixing same-key order) but
// appends *outside* the lock, so the log — not the keyspace stripes — is
// the only shared write structure, and it is engineered for concurrency:
// appends go into one buffered writer under a short mutex, and durability
// waits are batched. Under FsyncAlways, the first waiting writer becomes
// the commit leader: it flushes the buffer and issues one Fdatasync
// covering every record appended so far, then releases every writer whose
// record that sync covered — the same cross-caller group-commit rule the
// gateway's coalescer applies to shard writes, so durable write throughput
// scales with callers instead of serializing on one fsync per operation.
//
// # Recovery
//
// Open scans the directory; LoadSnapshot returns the newest snapshot
// payload; Replay streams every record with seq greater than the
// snapshot's covering sequence, in file order. Records may be slightly
// out of sequence order (appends race outside the stripe locks), so
// stores re-order by sequence before applying — the kvstore buckets by
// lock stripe and replays all 32 stripes in parallel. A torn tail in the
// last segment is truncated in place; corruption anywhere earlier is
// always fatal, because sealed segments are flushed and fsynced before the
// next one opens.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datablinder/internal/obs"
)

// Policy selects when appended records are forced to stable storage.
type Policy string

const (
	// FsyncAlways makes Append return only after a group-committed fsync
	// covers the record: no acked write is lost to a crash.
	FsyncAlways Policy = "always"
	// FsyncInterval flushes and fsyncs on a background interval (default
	// 1s): a crash loses at most the last window. This is the default,
	// matching the paper's "semi-persistent durability mode" Redis tier.
	FsyncInterval Policy = "interval"
	// FsyncNever leaves flushing to segment seals, explicit Sync calls,
	// Close, and the operating system.
	FsyncNever Policy = "never"
)

// ParsePolicy maps a flag string to a Policy ("" selects the default).
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return FsyncInterval, nil
	case FsyncAlways, FsyncInterval, FsyncNever:
		return Policy(s), nil
	}
	return "", fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

// Defaults for Options zero values.
const (
	DefaultSegmentSize = 16 << 20
	// DefaultSyncInterval is the FsyncInterval flush cadence.
	DefaultSyncInterval = time.Second
)

// Options configures a Log.
type Options struct {
	// Fsync is the durability policy (zero value: FsyncInterval).
	Fsync Policy
	// SegmentSize rotates the active segment once it reaches this many
	// bytes (0 = 16 MiB).
	SegmentSize int64
}

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	return o
}

// segment is one sealed, immutable log file.
type segment struct {
	name string
	size int64
	last uint64 // highest record seq
}

// Log is one store's segmented write-ahead log. Construct with Open, then
// LoadSnapshot and Replay exactly once before the first Append.
type Log struct {
	dir  string
	opts Options

	// The counters of Stats. snapshotNanos and recoveryNanos hold the most
	// recent durations, recoveryRecords the records the last Replay applied.
	appends, appendBytes         atomic.Uint64
	fsyncs, fsyncNanos           atomic.Uint64
	rotations, tornTails         atomic.Uint64
	snapshots, compacted         atomic.Uint64
	snapshotNanos, recoveryNanos atomic.Uint64
	recoveryRecords              atomic.Uint64
	fsyncHist, batchHist         obs.Histogram // fsync µs; records one fsync made durable

	mu      sync.Mutex
	cond    *sync.Cond
	ready   bool // recovery finished; appends allowed
	closed  bool
	f       *os.File
	buf     *bufWriter
	scratch []byte
	segIdx  uint64 // index of the active segment file
	segName string
	seg     segment // active segment metadata (name unset)
	sealed  []segment

	appendPos   uint64 // total bytes ever appended (across segments)
	syncedPos   uint64 // total bytes known durable
	pendingRecs uint64 // records appended since the last fsync
	syncing     bool
	syncErr     error

	snapSeq  uint64
	snapName string
	maxSeq   uint64
	segFiles []string // recovery worklist, cleared by Replay

	done chan struct{} // stops the interval syncer
}

// bufWriter is a minimal bufio.Writer replacement whose buffered length
// is observable (bufio hides whether an error left bytes behind).
type bufWriter struct {
	f   *os.File
	b   []byte
	max int
}

func newBufWriter(f *os.File) *bufWriter { return &bufWriter{f: f, max: 1 << 16} }

func (w *bufWriter) Write(p []byte) (int, error) {
	if len(w.b)+len(p) > w.max {
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	if len(p) > w.max {
		_, err := w.f.Write(p)
		return len(p), err
	}
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *bufWriter) Flush() error {
	if len(w.b) == 0 {
		return nil
	}
	_, err := w.f.Write(w.b)
	w.b = w.b[:0]
	return err
}

// Open prepares a log over dir, creating it if needed, and scans for
// existing snapshots and segments. No file is replayed yet: call
// LoadSnapshot, then Replay, before the first Append.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("wal: creating dir: %w", err)
	}
	l := &Log{
		dir: dir, opts: opts.withDefaults(),
		fsyncHist: obs.NewHistogram(fsyncBuckets), batchHist: obs.NewHistogram(batchBuckets),
	}
	l.cond = sync.NewCond(&l.mu)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading dir: %w", err)
	}
	var snaps []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal"):
			l.segFiles = append(l.segFiles, name)
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			snaps = append(snaps, name)
		}
	}
	sort.Strings(l.segFiles)
	sort.Strings(snaps)
	if n := len(l.segFiles); n > 0 {
		last := l.segFiles[n-1]
		if _, err := fmt.Sscanf(last, "seg-%016d.wal", &l.segIdx); err != nil {
			return nil, fmt.Errorf("wal: unparseable segment name %q", last)
		}
		l.segIdx++
	}
	// Only the newest snapshot is live; stale ones are leftovers from a
	// crash between rename and cleanup.
	if len(snaps) > 0 {
		l.snapName = snaps[len(snaps)-1]
		for _, s := range snaps[:len(snaps)-1] {
			os.Remove(filepath.Join(dir, s))
		}
	}
	live.Join(l)
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// MaxSeq returns the highest sequence recovered (snapshot covering seq or
// any replayed record); the store resumes its sequence from here.
func (l *Log) MaxSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxSeq
}

// Append writes one record and, under FsyncAlways, blocks until a group
// commit makes it durable. Safe for concurrent use.
func (l *Log) Append(seq uint64, payload []byte) error {
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", len(payload))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if !l.ready {
		l.mu.Unlock()
		return fmt.Errorf("wal: Append before Replay")
	}
	l.scratch = AppendRecord(l.scratch[:0], seq, payload)
	n := len(l.scratch)
	if _, err := l.buf.Write(l.scratch); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.seg.size += int64(n)
	l.appendPos += uint64(n)
	l.pendingRecs++
	if seq > l.seg.last {
		l.seg.last = seq
	}
	if seq > l.maxSeq {
		l.maxSeq = seq
	}
	l.appends.Add(1)
	l.appendBytes.Add(uint64(n))
	if l.seg.size >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	pos := l.appendPos
	if l.opts.Fsync == FsyncAlways {
		err := l.waitSyncedLocked(pos)
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()
	return nil
}

// rotateLocked seals the active segment (flush, fsync, close) and opens
// the next one. Sealed segments are therefore always fully durable, which
// is what lets recovery treat mid-history corruption as fatal.
func (l *Log) rotateLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if err := l.buf.Flush(); err != nil {
		return fmt.Errorf("wal: sealing %s: %w", l.segName, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sealing %s: %w", l.segName, err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing %s: %w", l.segName, err)
	}
	sealed := l.seg
	sealed.name = l.segName
	l.sealed = append(l.sealed, sealed)
	l.syncedPos = l.appendPos
	l.pendingRecs = 0
	l.rotations.Add(1)
	l.cond.Broadcast()
	return l.openSegmentLocked()
}

// openSegmentLocked creates the next active segment file.
func (l *Log) openSegmentLocked() error {
	name := fmt.Sprintf("seg-%016d.wal", l.segIdx)
	l.segIdx++
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	l.f = f
	l.buf = newBufWriter(f)
	l.segName = name
	l.seg = segment{}
	return nil
}

// waitSyncedLocked blocks until the durable watermark covers pos. The
// first waiter to find no sync in flight becomes the leader: it flushes
// and fsyncs once for every record appended so far, then wakes the group.
func (l *Log) waitSyncedLocked(pos uint64) error {
	for {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.syncedPos >= pos {
			return nil
		}
		if l.closed {
			return ErrClosed
		}
		if !l.syncing {
			l.syncing = true
			target := l.appendPos
			batch := l.pendingRecs
			l.pendingRecs = 0
			if err := l.buf.Flush(); err != nil {
				l.syncErr = fmt.Errorf("wal: flush: %w", err)
				l.syncing = false
				l.cond.Broadcast()
				return l.syncErr
			}
			f := l.f
			l.mu.Unlock()
			t0 := time.Now()
			err := fdatasync(f)
			d := time.Since(t0)
			l.mu.Lock()
			l.fsyncs.Add(1)
			l.fsyncNanos.Add(uint64(d.Nanoseconds()))
			l.fsyncHist.Observe(uint64(d.Microseconds()))
			if batch > 0 { // 0: the records were already durable (sealed by rotation)
				l.batchHist.Observe(batch)
			}
			if err != nil {
				l.syncErr = fmt.Errorf("wal: fsync: %w", err)
			} else if target > l.syncedPos {
				l.syncedPos = target
			}
			l.syncing = false
			l.cond.Broadcast()
		} else {
			l.cond.Wait()
		}
	}
}

// Sync forces everything appended so far to stable storage, joining any
// in-flight group commit.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.ready {
		return nil
	}
	return l.waitSyncedLocked(l.appendPos)
}

// runIntervalSync is the FsyncInterval background flusher.
func (l *Log) runIntervalSync() {
	t := time.NewTicker(DefaultSyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.ready && l.appendPos > l.syncedPos {
				l.waitSyncedLocked(l.appendPos) //nolint:errcheck // latched in syncErr
			}
			l.mu.Unlock()
		}
	}
}

// Close flushes, fsyncs, and closes the log. Waiters parked on a group
// commit are released durable before the file closes. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.syncing {
		l.cond.Wait()
	}
	var err error
	if l.ready {
		if ferr := l.buf.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if ferr := l.f.Sync(); ferr != nil && err == nil {
			err = ferr
		}
		if err == nil {
			l.syncedPos = l.appendPos
		}
		if ferr := l.f.Close(); ferr != nil && err == nil {
			err = ferr
		}
	}
	l.closed = true
	if l.done != nil {
		close(l.done)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	live.Leave(l)
	if err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// fsyncBuckets bound the fsync-latency histogram (µs), batchBuckets the
// group-commit batch sizes (records per fsync).
var (
	fsyncBuckets = obs.NewBuckets("us", 50, 100, 250, 500, 1000, 2500, 5000, 10000)
	batchBuckets = obs.NewBuckets("", 1, 2, 4, 8, 16, 32, 64)
)

// live is every open Log, published as expvar "datablinder_store": the
// -pprof listener of gateway and cloudserver shows appends, fsync latency,
// group-commit batch sizes, segment counts and recovery cost.
var live = obs.NewSet("datablinder_store", statsOf)

// Stats is a point-in-time snapshot of one Log, or of every open Log in
// the process (expvar "datablinder_store").
type Stats struct {
	// Appends counts records written; AppendBytes their framed size.
	Appends     uint64 `json:"appends"`
	AppendBytes uint64 `json:"append_bytes"`
	// Fsyncs counts physical data syncs; FsyncMeanUs is the mean latency
	// and FsyncHist the latency histogram. BatchHist buckets each group
	// commit by how many records one fsync made durable.
	Fsyncs      uint64            `json:"fsyncs"`
	FsyncMeanUs float64           `json:"fsync_mean_us"`
	FsyncHist   map[string]uint64 `json:"fsync_latency_hist"`
	BatchHist   map[string]uint64 `json:"group_commit_batch_hist"`
	// Segments / SealedBytes describe the live log structure; Rotations,
	// Snapshots, CompactedSegments, and TornTails count lifecycle events.
	Segments          int    `json:"segments"`
	SealedBytes       int64  `json:"sealed_bytes"`
	Rotations         uint64 `json:"rotations"`
	Snapshots         uint64 `json:"snapshots"`
	CompactedSegments uint64 `json:"compacted_segments"`
	TornTails         uint64 `json:"torn_tails_truncated"`
	// SnapshotLastMs / RecoveryLastMs are the most recent snapshot write
	// and Replay durations (over several logs, the slowest); RecoveryRecords
	// the records the last Replay applied.
	SnapshotLastMs  float64 `json:"snapshot_last_ms"`
	RecoveryLastMs  float64 `json:"recovery_last_ms"`
	RecoveryRecords uint64  `json:"recovery_records"`
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats { return statsOf(l) }

// statsOf sums the counters of logs into one snapshot.
func statsOf(logs ...*Log) Stats {
	s := Stats{FsyncHist: make(map[string]uint64), BatchHist: make(map[string]uint64)}
	var fsyncNanos uint64
	for _, l := range logs {
		s.Appends += l.appends.Load()
		s.AppendBytes += l.appendBytes.Load()
		s.Fsyncs += l.fsyncs.Load()
		fsyncNanos += l.fsyncNanos.Load()
		l.fsyncHist.AddTo(s.FsyncHist)
		l.batchHist.AddTo(s.BatchHist)
		s.Rotations += l.rotations.Load()
		s.Snapshots += l.snapshots.Load()
		s.CompactedSegments += l.compacted.Load()
		s.TornTails += l.tornTails.Load()
		s.SnapshotLastMs = max(s.SnapshotLastMs, float64(l.snapshotNanos.Load())/1e6)
		s.RecoveryLastMs = max(s.RecoveryLastMs, float64(l.recoveryNanos.Load())/1e6)
		s.RecoveryRecords += l.recoveryRecords.Load()
		l.mu.Lock()
		s.Segments += len(l.sealed)
		if l.ready && !l.closed {
			s.Segments++ // the active segment
		}
		for _, seg := range l.sealed {
			s.SealedBytes += seg.size
		}
		l.mu.Unlock()
	}
	if s.Fsyncs > 0 {
		s.FsyncMeanUs = float64(fsyncNanos) / 1e3 / float64(s.Fsyncs)
	}
	return s
}
