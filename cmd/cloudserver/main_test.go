package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"datablinder/internal/store/kvstore"
	"datablinder/internal/store/wal"
	"datablinder/internal/wirefmt"
)

// writeLogFormatDocs writes a docs directory the way the document store did
// before it became a kvstore hash: its own frames in the WAL, op 1 a put
// (collection, id, blob), op 2 a delete (collection, id), and the final
// snapshot that store wrote on a clean close.
func writeLogFormatDocs(t *testing.T, dir string) {
	t.Helper()
	frame := func(op byte, id string, blob []byte) []byte {
		b := wirefmt.AppendString([]byte{op}, "obs")
		b = wirefmt.AppendString(b, id)
		if op == 1 {
			b = wirefmt.AppendBytes(b, blob)
		}
		return b
	}
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
	for seq, f := range [][]byte{frame(1, "d1", []byte("sealed-1")), frame(1, "d2", []byte("sealed-2")), frame(2, "d1", nil)} {
		if err := l.Append(uint64(seq+1), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot(3, wirefmt.AppendBytes(nil, frame(1, "d2", []byte("sealed-2")))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeStoreFormatDocs writes a docs directory the way the document store
// did while it was a kvstore of its own: one hash per collection, named by
// the bare collection, and the final snapshot it wrote on a clean close.
func writeStoreFormatDocs(t *testing.T, dir string) {
	t.Helper()
	kv, err := kvstore.Open(dir, kvstore.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"d1", "d2"} {
		if err := kv.HSet([]byte("obs"), []byte(id), []byte("blob-"+id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeIndex writes an index store like the one the old layout kept beside
// its docs directory.
func writeIndex(t *testing.T, dir string) {
	t.Helper()
	kv, err := kvstore.Open(dir, kvstore.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Set([]byte("detidx/obs/code/x"), []byte("d2")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
}

// tree reads every directory and file under root, keyed by relative path.
func tree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			out[rel] = "dir"
			return nil
		}
		b, err := os.ReadFile(path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRefusesDocsDir: documents live in the shard's one store, and there is
// no migration from the layout that kept them in a store of their own. A
// data directory holding docs — in the document store's own log format or
// in the kvstore format that followed it, single-node or in one shard of
// several — fails start-up with an error naming that docs directory, and
// leaves every file under the data directory byte-identical.
func TestRefusesDocsDir(t *testing.T) {
	formats := map[string]func(*testing.T, string){
		"log":   writeLogFormatDocs,
		"store": writeStoreFormatDocs,
	}
	for name, write := range formats {
		for _, shards := range []int{1, 2} {
			data := t.TempDir()
			shard := data
			if shards > 1 {
				// Shard 0 is laid out correctly; only the last shard is old.
				writeIndex(t, filepath.Join(data, "shard-0", "index"))
				shard = filepath.Join(data, "shard-1")
			}
			writeIndex(t, filepath.Join(shard, "index"))
			docs := filepath.Join(shard, "docs")
			write(t, docs)
			before := tree(t, data)

			done := make(chan error, 1)
			go func() { done <- run("127.0.0.1:17700", shards, data, "never", 1) }()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s format, %d shards: cloudserver started on a data directory holding %s", name, shards, docs)
			}
			if err == nil || !strings.Contains(err.Error(), docs) {
				t.Errorf("%s format, %d shards: start-up error %v does not name %s", name, shards, err, docs)
			}
			if after := tree(t, data); !reflect.DeepEqual(before, after) {
				t.Errorf("%s format, %d shards: the refused start-up changed the data directory: %d entries before, %d after", name, shards, len(before), len(after))
			}
		}
	}
}

// TestStorePaths: a data directory without docs gives one store path per
// shard, and the check creates nothing.
func TestStorePaths(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	for _, tc := range []struct {
		data   string
		shards int
		want   []string
	}{
		{"", 2, []string{"", ""}},
		{data, 1, []string{filepath.Join(data, "index")}},
		{data, 2, []string{filepath.Join(data, "shard-0", "index"), filepath.Join(data, "shard-1", "index")}},
	} {
		got, err := storePaths(tc.data, tc.shards)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("storePaths(%q, %d) = %v, %v; want %v", tc.data, tc.shards, got, err, tc.want)
		}
	}
	if _, err := os.Stat(data); !os.IsNotExist(err) {
		t.Errorf("storePaths created %s (stat: %v)", data, err)
	}
}
