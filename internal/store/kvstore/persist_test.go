package kvstore

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablinder/internal/store/wal"
)

// TestOpenOnRegularFileFailsAndLeavesIt: the WAL directory is the only
// on-disk format. A regular file at the store path — whatever wrote it —
// is not read, converted or moved aside: Open fails naming the path and
// the file stays byte-identical.
func TestOpenOnRegularFileFailsAndLeavesIt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.aof")
	content := []byte("SET aw== dg==\nnot a directory of log segments\n")
	if err := os.WriteFile(path, content, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err == nil {
		s.Close()
		t.Fatal("Open succeeded on a regular file")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the path %s", err, path)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || !bytes.Equal(got, content) {
		t.Fatalf("file changed by the failed Open: %q, %v", got, rerr)
	}
	if matches, _ := filepath.Glob(path + ".*"); len(matches) != 0 {
		t.Fatalf("failed Open left files beside the path: %v", matches)
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves a partial record at the tail of the last
	// segment; reopen must truncate it and keep every complete record.
	segs, err := filepath.Glob(filepath.Join(path, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x33, 0x99, 0x05, 0x01})
	f.Close()

	s2, err := Open(path, Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	for i := 0; i < 50; i++ {
		if _, ok, _ := s2.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d lost to torn-tail truncation", i)
		}
	}
	if st := s2.WAL().Stats(); st.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", st.TornTails)
	}
}

func TestCompactBoundsRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, Options{Fsync: wal.FsyncNever, SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 128)
	for i := 0; i < 500; i++ {
		if err := s.Set([]byte(fmt.Sprintf("k%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Post-snapshot writes form the tail.
	for i := 500; i < 520; i++ {
		if err := s.Set([]byte(fmt.Sprintf("k%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 520; i++ {
		if _, ok, _ := s2.Get([]byte(fmt.Sprintf("k%04d", i))); !ok {
			t.Fatalf("k%04d lost across compaction", i)
		}
	}
	// Recovery must have replayed only the tail, not all 520 writes.
	if st := s2.WAL().Stats(); st.RecoveryRecords >= 100 {
		t.Fatalf("recovery replayed %d records; snapshot did not bound the tail", st.RecoveryRecords)
	}
}

// TestCompactionDropsWhatItCovers: after a background compaction and a
// clean close, no segment left on disk holds a record the snapshot
// covers — the segment that was active when the snapshot froze the store
// is sealed and dropped with the older ones, not kept beside it.
func TestCompactionDropsWhatItCovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, Options{Fsync: wal.FsyncNever, SegmentSize: 4 << 20, CompactBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 400)
	const writes = 30000
	for i := 0; i < writes; i++ {
		if err := s.HSet([]byte(fmt.Sprintf("h%02d", i%64)), []byte(fmt.Sprintf("f%05d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // waits for a compaction in flight
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(path, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots on disk after %d writes, want 1", len(snaps), writes)
	}
	var snapSeq uint64
	if _, err := fmt.Sscanf(filepath.Base(snaps[0]), "snap-%d.snap", &snapSeq); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(path, "seg-*.wal"))
	for _, name := range segs {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		rr := wal.NewRecordReader(bufio.NewReader(f))
		for {
			seq, _, err := rr.Next()
			if err != nil {
				break
			}
			if seq <= snapSeq {
				f.Close()
				t.Fatalf("%s holds record %d, covered by snapshot %d", filepath.Base(name), seq, snapSeq)
			}
		}
		f.Close()
	}
	s2, err := Open(path, Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	total := 0
	for k := 0; k < 64; k++ {
		n, _ := s2.HLen([]byte(fmt.Sprintf("h%02d", k)))
		total += n
	}
	if total != writes {
		t.Fatalf("reopened store holds %d fields, want %d", total, writes)
	}
}

func TestAutoCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, Options{Fsync: wal.FsyncNever, SegmentSize: 2 << 10, CompactBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("y"), 256)
	for i := 0; i < 400; i++ {
		if err := s.Set([]byte(fmt.Sprintf("k%d", i%10)), val); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.WAL().Stats(); st.Snapshots > 0 && st.CompactedSegments > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no auto-compaction after %d sealed bytes", s.WAL().SealedBytes())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConcurrentPersistedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, Options{Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("g%d-%d", g, i))
				if err := s.Set(k, k); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				if _, err := s.Incr([]byte("shared"), 1); err != nil {
					t.Errorf("Incr: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if c, _ := s2.Counter([]byte("shared")); c != 8*50 {
		t.Fatalf("replayed counter = %d, want %d", c, 8*50)
	}
	for g := 0; g < 8; g++ {
		for i := 0; i < 50; i++ {
			k := []byte(fmt.Sprintf("g%d-%d", g, i))
			if _, ok, _ := s2.Get(k); !ok {
				t.Fatalf("%s lost", k)
			}
		}
	}
}

// crashEnvDir is set in the child process of TestCrashRecovery; the child
// writes acked keys to a ledger until the parent SIGKILLs it.
const (
	crashEnvDir    = "KVSTORE_CRASH_DIR"
	crashEnvPolicy = "KVSTORE_CRASH_POLICY"
)

// crashHash is the hash the crash child inserts into and deletes from.
var crashHash = []byte("docs")

// crashCounters is the number of writers that Incr one shared counter in
// each round of the crash child: round j starts them together on counter
// "ctr/j" and ends when all have returned. Their appends reach the log in
// any order, and only recovery's per-stripe sort by sequence puts the
// highest value last. (Had one counter taken every Incr of the run, only
// its final frames would show that order.)
const crashCounters = 16

// TestCrashHelper is not a real test: it is the body of the crash-injected
// child process. Under concurrent load it sets keys, inserts hash fields
// with HSetNX, inserts then HRemoves others, and increments shared
// counters, recording each acknowledged write in a ledger file ("set k",
// "ins f", "del f", "inc c v" for counter c acknowledged at value v), and
// each Incr before it is made ("call c"), until it is killed.
func TestCrashHelper(t *testing.T) {
	dir := os.Getenv(crashEnvDir)
	if dir == "" {
		t.Skip("crash helper: driven by TestCrashRecovery")
	}
	policy := wal.Policy(os.Getenv(crashEnvPolicy))
	s, err := Open(filepath.Join(dir, "store"), Options{Fsync: policy, SegmentSize: 32 << 10})
	if err != nil {
		t.Fatalf("helper open: %v", err)
	}
	ledger, err := os.OpenFile(filepath.Join(dir, "ledger"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatalf("helper ledger: %v", err)
	}
	// 4 concurrent writers; the ledger line is written only after the
	// store acknowledges, so under fsync=always every ledger entry is a
	// durability promise. Ledger writes are unbuffered single syscalls —
	// surviving SIGKILL needs only the page cache, not the disk.
	var mu sync.Mutex
	ack := func(kind, key string) {
		mu.Lock()
		fmt.Fprintf(ledger, "%s %s\n", kind, key)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				key := fmt.Sprintf("w%d-%d", g, i)
				if err := s.Set([]byte(key), []byte(key)); err != nil {
					return
				}
				ack("set", key)
				if ok, err := s.HSetNX(crashHash, []byte(key), []byte(key)); err != nil || !ok {
					return
				}
				ack("ins", key)
				gone := "gone-" + key
				if ok, err := s.HSetNX(crashHash, []byte(gone), []byte(key)); err != nil || !ok {
					return
				}
				if ok, err := s.HRemove(crashHash, []byte(gone)); err != nil || !ok {
					return
				}
				ack("del", gone)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; ; j++ {
			ctr := fmt.Sprintf("ctr/%d", j)
			var round sync.WaitGroup
			var failed atomic.Bool
			for g := 0; g < crashCounters; g++ {
				round.Add(1)
				go func() {
					defer round.Done()
					ack("call", ctr)
					v, err := s.Incr([]byte(ctr), 1)
					if err != nil {
						failed.Store(true)
						return
					}
					ack("inc", fmt.Sprintf("%s %d", ctr, v))
				}()
			}
			round.Wait()
			if failed.Load() {
				return
			}
		}
	}()
	wg.Wait()
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a crash-injected child process")
	}
	for _, policy := range []wal.Policy{wal.FsyncAlways, wal.FsyncInterval, wal.FsyncNever} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestCrashHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				crashEnvDir+"="+dir,
				crashEnvPolicy+"="+string(policy),
			)
			if err := cmd.Start(); err != nil {
				t.Fatalf("starting child: %v", err)
			}
			// Let the child ack a meaningful number of writes, then pull
			// the plug mid-stream.
			ledgerPath := filepath.Join(dir, "ledger")
			deadline := time.Now().Add(10 * time.Second)
			for {
				if fi, err := os.Stat(ledgerPath); err == nil && fi.Size() > 4096 {
					break
				}
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatal("child produced no writes in 10s")
				}
				time.Sleep(10 * time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond)
			if err := cmd.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL: %v", err)
			}
			cmd.Wait() //nolint:errcheck // killed by design

			// Reopen: no policy may corrupt the store...
			s, err := Open(filepath.Join(dir, "store"), Options{Fsync: policy})
			if err != nil {
				t.Fatalf("reopen after SIGKILL: %v", err)
			}
			defer s.Close()

			// ...no counter may exceed the Incr calls made on it, and under
			// fsync=always every acked write must be present, every acked
			// delete must stay deleted and no counter may read below a value
			// acked for it.
			always := policy == wal.FsyncAlways
			lf, err := os.Open(ledgerPath)
			if err != nil {
				t.Fatal(err)
			}
			defer lf.Close()
			acked := 0
			sc := bufio.NewScanner(lf)
			var lines []string
			for sc.Scan() {
				lines = append(lines, sc.Text())
			}
			// The final line can itself be torn by the SIGKILL; only
			// newline-terminated entries are completed acks, and Scanner
			// surfaces an unterminated tail as a final token — drop it by
			// re-checking the raw file.
			raw, err := os.ReadFile(ledgerPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) > 0 && raw[len(raw)-1] != '\n' && len(lines) > 0 {
				lines = lines[:len(lines)-1]
			}
			calls := map[string]int64{}   // Incr calls made, per counter
			highest := map[string]int64{} // highest acked value, per counter
			for _, line := range lines {
				kind, key, _ := strings.Cut(line, " ")
				var ok bool
				switch kind {
				case "call":
					calls[key]++
					continue
				case "inc":
					var ctr string
					var v int64
					if _, err := fmt.Sscanf(key, "%s %d", &ctr, &v); err != nil {
						t.Fatalf("unparsable ledger line %q", line)
					}
					highest[ctr] = max(highest[ctr], v)
					continue
				case "set":
					_, ok, _ = s.Get([]byte(key))
				case "ins":
					_, ok, _ = s.HGet(crashHash, []byte(key))
				case "del":
					_, present, _ := s.HGet(crashHash, []byte(key))
					ok = !present
				default:
					t.Fatalf("unparsable ledger line %q", line)
				}
				if always && !ok {
					t.Fatalf("acked %s of %q lost after SIGKILL under fsync=always", kind, key)
				}
				acked++
			}
			counters, err := s.Keys([]byte("ctr/"))
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range counters {
				if v, err := s.Counter(k); err != nil || v > calls[string(k)] {
					t.Fatalf("counter %s recovered as %d, %v after %d Incr calls", k, v, err, calls[string(k)])
				}
			}
			for ctr, v := range highest {
				if got, err := s.Counter([]byte(ctr)); always && (err != nil || got < v) {
					t.Fatalf("counter %s recovered as %d, %v after %d was acked under fsync=always", ctr, got, err, v)
				}
			}
			if acked == 0 || len(highest) == 0 {
				t.Fatal("ledger holds no acked write or Incr; crash test proved nothing")
			}
			t.Logf("checked %d acked sets, inserts and deletes and %d counters (%d recovered) after SIGKILL",
				acked, len(highest), len(counters))
		})
	}
}

// TestEmptiedCollectionsLeaveKeyspace: a hash whose last field is deleted
// and a sorted set whose last member is removed are no keys at all — live,
// after a replay of the log that emptied them, and after a compaction and
// a reopen, so Len and Stats read the same across a restart.
func TestEmptiedCollectionsLeaveKeyspace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	open := func() *Store {
		s, err := Open(path, Options{Fsync: wal.FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	empty := func(s *Store, when string) {
		t.Helper()
		if n, err := s.Len(); err != nil || n != 0 {
			t.Errorf("%s: Len = %d, %v, want 0", when, n, err)
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, ns := range []string{"detidx", "opeidx", "doc"} {
			if got, ok := st[ns]; ok {
				t.Errorf("%s: Stats()[%q] = %+v, want no row", when, ns, got)
			}
		}
		if keys, err := s.HKeys(nil); err != nil || len(keys) != 0 {
			t.Errorf("%s: HKeys = %q, %v, want none", when, keys, err)
		}
		if n, err := s.ZCard([]byte("opeidx/z")); err != nil || n != 0 {
			t.Errorf("%s: ZCard = %d, %v, want 0", when, n, err)
		}
	}
	s := open()
	steps := []func() error{
		func() error { return s.HSet([]byte("detidx/a"), []byte("id1"), nil) },
		func() error { return s.HDel([]byte("detidx/a"), []byte("id1")) },
		func() error { return s.HSet([]byte("doc/c"), []byte("id2"), []byte("body")) },
		func() error {
			if ok, err := s.HRemove([]byte("doc/c"), []byte("id2")); err != nil || !ok {
				return fmt.Errorf("HRemove = %v, %v", ok, err)
			}
			return nil
		},
		func() error { return s.ZAdd([]byte("opeidx/z"), []byte{0, 7}, []byte("id3")) },
		func() error { return s.ZRem([]byte("opeidx/z"), []byte{0, 7}, []byte("id3")) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	empty(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	empty(s, "after replay")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open()
	defer s.Close()
	empty(s, "after compaction and reopen")
}
