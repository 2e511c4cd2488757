package cloud

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"datablinder/internal/store/wal"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

func TestNodeRegistersAllServices(t *testing.T) {
	node, err := NewNode(Options{})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	defer node.Close()

	services := node.Mux.Services()
	wantPrefixes := []string{"doc.", "det.", "rnd.", "mitra.", "sophos.", "biex.", "ope.", "ore.", "agg."}
	for _, p := range wantPrefixes {
		found := false
		for _, s := range services {
			if strings.HasPrefix(s, p) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* service registered (have %v)", p, services)
		}
	}
}

func TestDocServiceCRUD(t *testing.T) {
	node, err := NewNode(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	conn := transport.NewLoopback(node.Mux)
	ctx := context.Background()

	// put with IfAbsent.
	if err := conn.Call(ctx, DocService, "put",
		DocPutArgs{Collection: "c", ID: "d1", Blob: []byte("b1"), IfAbsent: true}, nil); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := conn.Call(ctx, DocService, "put",
		DocPutArgs{Collection: "c", ID: "d1", Blob: []byte("b2"), IfAbsent: true}, nil); err == nil {
		t.Fatal("duplicate IfAbsent put succeeded")
	}
	// overwrite without IfAbsent.
	if err := conn.Call(ctx, DocService, "put",
		DocPutArgs{Collection: "c", ID: "d1", Blob: []byte("b3")}, nil); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	var got DocGetReply
	if err := conn.Call(ctx, DocService, "get", DocGetArgs{Collection: "c", ID: "d1"}, &got); err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(got.Blob) != "b3" {
		t.Fatalf("get blob = %q", got.Blob)
	}
	// getmany preserves order, skips missing.
	conn.Call(ctx, DocService, "put", DocPutArgs{Collection: "c", ID: "d2", Blob: []byte("x")}, nil)
	var many DocGetManyReply
	if err := conn.Call(ctx, DocService, "getmany",
		DocGetManyArgs{Collection: "c", IDs: []string{"d2", "missing", "d1"}}, &many); err != nil {
		t.Fatalf("getmany: %v", err)
	}
	if len(many.Records) != 2 || many.Records[0].ID != "d2" || many.Records[1].ID != "d1" {
		t.Fatalf("getmany = %+v", many.Records)
	}
	// count + scan.
	var count DocCountReply
	if err := conn.Call(ctx, DocService, "count", DocCountArgs{Collection: "c"}, &count); err != nil || count.Count != 2 {
		t.Fatalf("count = %+v, %v", count, err)
	}
	var scan DocScanReply
	if err := conn.Call(ctx, DocService, "scan", DocScanArgs{Collection: "c", Limit: 10}, &scan); err != nil || len(scan.Records) != 2 {
		t.Fatalf("scan = %+v, %v", scan, err)
	}
	// delete.
	if err := conn.Call(ctx, DocService, "delete", DocDeleteArgs{Collection: "c", ID: "d1"}, nil); err != nil {
		t.Fatalf("delete: %v", err)
	}
	err = conn.Call(ctx, DocService, "get", DocGetArgs{Collection: "c", ID: "d1"}, &got)
	if err == nil || !transport.IsNotFoundError(err) {
		t.Fatalf("get after delete = %v", err)
	}
}

func TestNodePersistence(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		KVPath: filepath.Join(dir, "kv.aof"),
		DocDir: filepath.Join(dir, "docs"),
	}
	node, err := NewNode(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	conn := transport.NewLoopback(node.Mux)
	if err := conn.Call(ctx, DocService, "put",
		DocPutArgs{Collection: "c", ID: "d1", Blob: []byte("persisted")}, nil); err != nil {
		t.Fatal(err)
	}
	if err := node.KV.Set([]byte("idx"), []byte("entry")); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	node2, err := NewNode(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer node2.Close()
	blob, err := node2.Docs.Get("c", "d1")
	if err != nil || string(blob) != "persisted" {
		t.Fatalf("doc not restored: %q, %v", blob, err)
	}
	v, ok, err := node2.KV.Get([]byte("idx"))
	if err != nil || !ok || string(v) != "entry" {
		t.Fatalf("kv not restored: %q, %v, %v", v, ok, err)
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	node, err := NewNode(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := node.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// writeOldDocLog writes a docs directory the way the document store did
// before it became a kvstore hash: its own frames in the WAL, op 1 a put
// (collection, id, blob), op 2 a delete (collection, id). With snapshot it
// also leaves the final snapshot that store wrote on a clean close.
func writeOldDocLog(t *testing.T, dir string, snapshot bool) {
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
	if snapshot {
		if err := l.WriteSnapshot(3, wirefmt.AppendBytes(nil, frame(1, "d2", []byte("sealed-2")))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestNodeRefusesOldDocFormat: there is no migration from the document
// store's own log format. A docs directory in it — crashed (log only) or
// closed cleanly (log and snapshot) — fails NewNode with an error naming
// the directory, and leaves every file in it byte-identical.
func TestNodeRefusesOldDocFormat(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "docs")
		writeOldDocLog(t, dir, snapshot)
		before := readFiles(t, dir)
		node, err := NewNode(Options{DocDir: dir})
		if err == nil {
			node.Close()
			t.Fatalf("snapshot=%v: NewNode opened a docs directory in the old format", snapshot)
		}
		if !strings.Contains(err.Error(), dir) {
			t.Errorf("snapshot=%v: error %q does not name %s", snapshot, err, dir)
		}
		if after := readFiles(t, dir); !reflect.DeepEqual(before, after) {
			t.Errorf("snapshot=%v: the failed open changed the directory: %d files before, %d after", snapshot, len(before), len(after))
		}
	}
}
