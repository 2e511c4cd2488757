package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openReady opens a log over dir and runs the recovery protocol, returning
// the log plus everything replayed.
func openReady(t *testing.T, dir string, opts Options) (*Log, []byte, uint64, map[uint64][]byte) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap, snapSeq, _, err := l.LoadSnapshot()
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	got := make(map[uint64][]byte)
	if err := l.Replay(func(seq uint64, payload []byte) error {
		got[seq] = append([]byte(nil), payload...)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return l, snap, snapSeq, got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, _, got := openReady(t, dir, Options{Fsync: FsyncNever})
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	want := map[uint64][]byte{}
	for seq := uint64(1); seq <= 100; seq++ {
		p := []byte(fmt.Sprintf("payload-%d", seq))
		want[seq] = p
		if err := l.Append(seq, p); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, _, _, got2 := openReady(t, dir, Options{Fsync: FsyncNever})
	defer l2.Close()
	if l2.MaxSeq() != 100 {
		t.Fatalf("MaxSeq = %d, want 100", l2.MaxSeq())
	}
	if len(got2) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got2), len(want))
	}
	for seq, p := range want {
		if !bytes.Equal(got2[seq], p) {
			t.Fatalf("seq %d: got %q want %q", seq, got2[seq], p)
		}
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, _, _ := openReady(t, dir, Options{Fsync: FsyncAlways})
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	var seq struct {
		sync.Mutex
		n uint64
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq.Lock()
				seq.n++
				s := seq.n
				seq.Unlock()
				if err := l.Append(s, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Append: %v", err)
	}
	st := l.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Fsyncs == 0 {
		t.Fatal("no fsyncs recorded under FsyncAlways")
	}
	if st.Fsyncs > st.Appends {
		t.Fatalf("more fsyncs (%d) than appends (%d)", st.Fsyncs, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, _, _, got := openReady(t, dir, Options{})
	defer l2.Close()
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, _, _ := openReady(t, dir, Options{Fsync: FsyncNever, SegmentSize: 256})
	payload := bytes.Repeat([]byte("x"), 64)
	for seq := uint64(1); seq <= 40; seq++ {
		if err := l.Append(seq, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 3 {
		t.Fatalf("expected sealed segments plus the active one, got %d segments after %d rotations", st.Segments, st.Rotations)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal")); len(files) != st.Segments {
		t.Fatalf("%d segment files on disk, stats count %d", len(files), st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, _, _, got := openReady(t, dir, Options{})
	defer l2.Close()
	if len(got) != 40 {
		t.Fatalf("replayed %d records across segments, want 40", len(got))
	}
}

func TestSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, _, _ := openReady(t, dir, Options{Fsync: FsyncNever, SegmentSize: 256})
	payload := bytes.Repeat([]byte("y"), 64)
	for seq := uint64(1); seq <= 30; seq++ {
		if err := l.Append(seq, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	before := l.SealedBytes()
	if before == 0 {
		t.Fatal("expected sealed bytes before compaction")
	}
	if err := l.WriteSnapshot(30, []byte("state-at-30")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if after := l.SealedBytes(); after != 0 {
		t.Fatalf("SealedBytes = %d after full-coverage snapshot, want 0", after)
	}
	// Tail writes after the snapshot must replay on top of it.
	for seq := uint64(31); seq <= 35; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("tail-%d", seq))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, snap, snapSeq, got := openReady(t, dir, Options{})
	defer l2.Close()
	if string(snap) != "state-at-30" || snapSeq != 30 {
		t.Fatalf("snapshot = %q seq %d, want state-at-30 seq 30", snap, snapSeq)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d tail records, want 5", len(got))
	}
	for seq := uint64(31); seq <= 35; seq++ {
		if want := fmt.Sprintf("tail-%d", seq); string(got[seq]) != want {
			t.Fatalf("seq %d: got %q want %q", seq, got[seq], want)
		}
	}
	if l2.MaxSeq() != 35 {
		t.Fatalf("MaxSeq = %d, want 35", l2.MaxSeq())
	}
}

func TestSnapshotReplacesOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _, _, _ := openReady(t, dir, Options{Fsync: FsyncNever})
	if err := l.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("expected exactly one snapshot on disk, found %v", snaps)
	}
	l2, snap, seq, _ := openReady(t, dir, Options{})
	defer l2.Close()
	if string(snap) != "two" || seq != 2 {
		t.Fatalf("recovered snapshot %q seq %d, want \"two\" seq 2", snap, seq)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, _, _ := openReady(t, dir, Options{Fsync: FsyncNever})
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(seq, []byte(fmt.Sprintf("v%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	last := segs[len(segs)-1]
	clean, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial record: simulate with garbage.
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x07, 0xff, 0x03, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, _, _, got := openReady(t, dir, Options{})
	if len(got) != 10 {
		t.Fatalf("replayed %d records after torn tail, want 10", len(got))
	}
	if st := l2.Stats(); st.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", st.TornTails)
	}
	l2.Close()
	truncated, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if truncated.Size() != clean.Size() {
		t.Fatalf("torn segment is %d bytes, want truncated back to %d", truncated.Size(), clean.Size())
	}

	// And the log keeps working after truncation: reopen once more and write.
	l3, _, _, got3 := openReady(t, dir, Options{})
	defer l3.Close()
	if len(got3) != 10 {
		t.Fatalf("replay after truncation found %d records, want 10", len(got3))
	}
	if err := l3.Append(11, []byte("post-truncate")); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
}

func TestMidHistoryCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l, _, _, _ := openReady(t, dir, Options{Fsync: FsyncNever, SegmentSize: 128})
	payload := bytes.Repeat([]byte("z"), 48)
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments, got %d", len(segs))
	}
	// Flip a byte in the middle of the FIRST segment — sealed, so any
	// corruption there is real damage, not a crash artifact.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o600); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, _, _, err := l2.LoadSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Replay(func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("Replay accepted mid-history corruption")
	}
}

func TestLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("x")); err == nil {
		t.Fatal("Append before Replay succeeded")
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("second Replay succeeded")
	}
	if err := l.WriteSnapshot(0, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append(2, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	if err := l.WriteSnapshot(3, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteSnapshot after Close = %v, want ErrClosed", err)
	}

	if _, err := Open(dir, Options{Fsync: Policy("bogus")}); err == nil {
		// ParsePolicy guards flag input; Options trusts the caller, so
		// document that an unknown literal policy behaves like FsyncNever
		// rather than erroring — but ParsePolicy must reject it.
		t.Log("Open does not validate Policy literals; ParsePolicy is the gate")
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
	for _, s := range []string{"", "always", "interval", "never"} {
		if _, err := ParsePolicy(s); err != nil {
			t.Fatalf("ParsePolicy(%q): %v", s, err)
		}
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, _, _ := openReady(t, dir, Options{Fsync: FsyncNever})
	defer l.Close()
	huge := make([]byte, MaxRecordSize+1)
	if err := l.Append(1, huge); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var b []byte
	b = AppendRecord(b, 7, []byte("hello"))
	b = AppendRecord(b, 8, nil)
	b = AppendRecord(b, 1<<60, bytes.Repeat([]byte{0}, 1000))
	rr := NewRecordReader(bytes.NewReader(b))
	seq, p, err := rr.Next()
	if err != nil || seq != 7 || string(p) != "hello" {
		t.Fatalf("record 1: seq=%d p=%q err=%v", seq, p, err)
	}
	seq, p, err = rr.Next()
	if err != nil || seq != 8 || len(p) != 0 {
		t.Fatalf("record 2: seq=%d p=%q err=%v", seq, p, err)
	}
	seq, p, err = rr.Next()
	if err != nil || seq != 1<<60 || len(p) != 1000 {
		t.Fatalf("record 3: seq=%d len=%d err=%v", seq, len(p), err)
	}
	if _, _, err := rr.Next(); err != io.EOF {
		t.Fatalf("trailing Next = %v, want io.EOF", err)
	}
	if rr.Offset() != int64(len(b)) {
		t.Fatalf("Offset = %d, want %d", rr.Offset(), len(b))
	}

	// A flipped bit anywhere must surface as ErrTorn, never as valid data.
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x40
		rr := NewRecordReader(bytes.NewReader(mut))
		for {
			gotSeq, gotP, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrTorn) {
					t.Fatalf("flip at %d: error %v does not wrap ErrTorn", i, err)
				}
				break
			}
			// A record that still parses must be one of the originals
			// (flips confined to a later record leave earlier ones intact).
			switch gotSeq {
			case 7:
				if string(gotP) != "hello" {
					t.Fatalf("flip at %d: corrupt payload passed CRC", i)
				}
			case 8, 1 << 60:
			default:
				t.Fatalf("flip at %d: fabricated record seq=%d passed CRC", i, gotSeq)
			}
		}
	}
}

// storeVar decodes the "datablinder_store" expvar.
func storeVar(t *testing.T) Stats {
	t.Helper()
	var s Stats
	if err := json.Unmarshal([]byte(expvar.Get("datablinder_store").String()), &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStatsAggregate: the "datablinder_store" expvar sums every open Log
// and drops a closed one.
func TestStatsAggregate(t *testing.T) {
	before := storeVar(t)
	dir := t.TempDir()
	l, _, _, _ := openReady(t, dir, Options{Fsync: FsyncAlways})
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(seq, []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	if agg := storeVar(t); agg.Appends-before.Appends != 5 {
		t.Fatalf("expvar appends went %d -> %d, want +5", before.Appends, agg.Appends)
	}
	st := l.Stats()
	if st.FsyncMeanUs <= 0 {
		t.Fatalf("FsyncMeanUs = %v, want > 0", st.FsyncMeanUs)
	}
	if len(st.FsyncHist) == 0 {
		t.Fatal("empty fsync histogram after FsyncAlways appends")
	}
	if st.BatchHist["1"] == 0 {
		t.Fatalf("batch histogram %v has no single-record commit after FsyncAlways appends", st.BatchHist)
	}
	l.Close()
	if agg := storeVar(t); agg.Appends != before.Appends {
		t.Fatalf("expvar still counts a closed log: appends %d, before %d", agg.Appends, before.Appends)
	}
}

// TestStatsWhileClosing: expvar reads race logs that open, append and
// close (run it under -race); once they are closed, the sum is back where
// it started.
func TestStatsWhileClosing(t *testing.T) {
	before := storeVar(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := expvar.Get("datablinder_store").String(); !json.Valid([]byte(v)) {
				t.Errorf("datablinder_store is not JSON: %s", v)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		l, _, _, _ := openReady(t, t.TempDir(), Options{Fsync: FsyncNever})
		for seq := uint64(1); seq <= 3; seq++ {
			if err := l.Append(seq, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
	}
	close(stop)
	wg.Wait()
	if after := storeVar(t); after.Appends != before.Appends || after.Segments != before.Segments {
		t.Fatalf("closed logs still counted: before %+v, after %+v", before, after)
	}
}
