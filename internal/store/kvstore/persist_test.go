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

// TestCrashHelper is not a real test: it is the body of the crash-injected
// child process. Under concurrent load it sets keys, inserts hash fields
// with HSetNX, and inserts then HRemoves others, recording each
// acknowledged write in a ledger file ("set k", "ins f", "del f"), until
// it is killed.
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
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ack := func(kind, key string) {
				mu.Lock()
				fmt.Fprintf(ledger, "%s %s\n", kind, key)
				mu.Unlock()
			}
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

			// ...and under fsync=always every acked write must be present,
			// and every acked delete must stay deleted.
			if policy != wal.FsyncAlways {
				return
			}
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
			for _, line := range lines {
				kind, key, _ := strings.Cut(line, " ")
				var ok bool
				switch kind {
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
				if !ok {
					t.Fatalf("acked %s of %q lost after SIGKILL under fsync=always", kind, key)
				}
				acked++
			}
			if acked == 0 {
				t.Fatal("ledger empty; crash test proved nothing")
			}
			t.Logf("verified %d acked sets, inserts and deletes survived SIGKILL", acked)
		})
	}
}
