package cloud

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"datablinder/internal/transport"
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
