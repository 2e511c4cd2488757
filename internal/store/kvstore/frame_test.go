package kvstore

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"datablinder/internal/store/wal"
	"datablinder/internal/wirefmt"
)

// frame encodes op followed by fields, each length-prefixed.
func frame(op byte, fields ...[]byte) []byte {
	b := []byte{op}
	for _, f := range fields {
		b = wirefmt.AppendBytes(b, f)
	}
	return b
}

// retiredFrames are frames of the retired op codes as they were written:
// a set add and remove (5, 6: key, member) and a counter increment (7:
// key, delta).
var retiredFrames = [][]byte{
	frame(5, []byte("detidx/obs/code/ct"), []byte("d1")),
	frame(6, []byte("detidx/obs/code/ct"), []byte("d1")),
	wirefmt.AppendInt64(frame(7, []byte("mitractr/obs\x00w")), 1),
}

// TestRetiredOpCodesRefused: a log that holds a set or counter frame of the
// retired codes is in another format. Open fails, and leaves every file
// under the directory as it was.
func TestRetiredOpCodesRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := l.LoadSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i, f := range [][]byte{frame(opSet, []byte("k"), []byte("v")), retiredFrames[0], retiredFrames[2]} {
		if err := l.Append(uint64(i+1), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)
	if s, err := Open(dir); err == nil {
		s.Close()
		t.Fatal("Open succeeded on a log holding retired op codes")
	}
	after := readTree(t, dir)
	if len(after) != len(before) {
		t.Fatalf("failed Open changed the files: %d before, %d after", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("failed Open changed %s", name)
		}
	}
}

// readTree returns the contents of every regular file under dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// FuzzKVFrame throws arbitrary bytes at the op frame decoder: decodeFrame
// and stripeOf never panic, refuse code 0, the retired codes 5–7 and every
// code above opMax, and a frame they accept maps to a stripe of the store.
func FuzzKVFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{opSet})
	f.Add(frame(opSet, []byte("k"), []byte("v")))
	f.Add(frame(opDel, []byte("k")))
	f.Add(frame(opHSet, []byte("h"), []byte("f"), nil))
	f.Add(frame(opHDel, []byte("h"), []byte("f")))
	f.Add(frame(opZAdd, []byte("z"), []byte{0, 1}, []byte("m")))
	f.Add(frame(opZRem, []byte("z"), []byte{0, 1}, []byte("m")))
	f.Add(frame(0, []byte("k"), []byte("v")))
	f.Add(frame(opMax+1, []byte("k"), []byte("v")))
	for _, r := range retiredFrames {
		f.Add(r)
	}
	// Truncated mid-field, and a length prefix claiming ~1 EiB.
	f.Add(frame(opHSet, []byte("h"), []byte("field"))[:5])
	f.Add([]byte{opSet, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeFrame(data)
		si, serr := stripeOf(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("decodeFrame error %v, stripeOf error %v", err, serr)
		}
		if err != nil {
			return
		}
		switch m.op {
		case opSet, opDel, opHSet, opHDel, opZAdd, opZRem:
		default:
			t.Fatalf("decodeFrame accepted op %d", m.op)
		}
		if si < 0 || si >= numShards || si != shardIndex(m.key) {
			t.Fatalf("stripeOf = %d for key %q", si, m.key)
		}
	})
}
