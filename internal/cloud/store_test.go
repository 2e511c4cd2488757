package cloud

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"datablinder/internal/store/wal"
	"datablinder/internal/tactics/cell"
	"datablinder/internal/tactics/det"
	"datablinder/internal/tactics/rnd"
	"datablinder/internal/transport"
)

// dirBytes sums the sizes of the files under dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// segmentSeqs returns the sequence numbers of every record in the log
// segments directly under dir.
func segmentSeqs(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, name := range segs {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		rr := wal.NewRecordReader(f)
		for {
			seq, _, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			seqs = append(seqs, seq)
		}
		f.Close()
	}
	return seqs
}

// TestCleanCloseStoresRecordsOnce: a node that persisted documents and
// index cells and then closed cleanly keeps each record once. No snapshot
// covers a record a kept segment still holds, and the directory stays
// under 1.3× the bytes the writes stored.
func TestCleanCloseStoresRecordsOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "index")
	node, err := NewNode(Options{KVPath: dir, FsyncPolicy: "never"})
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewLoopback(node.Mux)
	ctx := context.Background()
	blob := bytes.Repeat([]byte{0xa5}, 400)
	ct := bytes.Repeat([]byte{0x5a}, 64)
	var payload int64
	for i := 0; i < 5000; i++ {
		id := fmt.Sprintf("d%05d", i)
		if err := conn.Call(ctx, DocService, "put", DocPutArgs{Collection: "obs", ID: id, Blob: blob, IfAbsent: true}, nil); err != nil {
			t.Fatal(err)
		}
		if err := conn.Call(ctx, rnd.Service, "put", cell.Args{Schema: "obs", Field: "note", CT: ct, DocID: id}, nil); err != nil {
			t.Fatal(err)
		}
		// What each write stores: its value and the names that address it.
		payload += int64(len("obs") + len(id) + len(blob))
		payload += int64(len("obs") + len("note") + len(id) + len(ct))
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	seqs := segmentSeqs(t, dir)
	for _, snap := range snaps {
		var covered uint64
		if _, err := fmt.Sscanf(filepath.Base(snap), "snap-%d.snap", &covered); err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if seq <= covered {
				t.Fatalf("%s covers seq %d, which a kept segment also holds", filepath.Base(snap), seq)
			}
		}
	}
	on := dirBytes(t, filepath.Dir(dir))
	if ratio := float64(on) / float64(payload); ratio >= 1.3 {
		t.Fatalf("%d bytes on disk for %d bytes of records: %.2f×, want < 1.3×", on, payload, ratio)
	} else {
		t.Logf("%d bytes on disk for %d bytes of records: %.2f×", on, payload, ratio)
	}

	// And the one log recovers both.
	node, err = NewNode(Options{KVPath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if n, err := node.Docs.Count("obs"); err != nil || n != 5000 {
		t.Fatalf("documents after reopen = %d, %v; want 5000", n, err)
	}
	var cells rnd.ScanReply
	if err := transport.NewLoopback(node.Mux).Call(ctx, rnd.Service, "scan", rnd.ScanArgs{Schema: "obs", Field: "note"}, &cells); err != nil || len(cells.Items) != 5000 {
		t.Fatalf("cells after reopen = %d, %v; want 5000", len(cells.Items), err)
	}
}

// indexReads reads back every index entry TestDocNamespaceIsolation writes.
func indexReads(t *testing.T, node *Node) map[string]any {
	t.Helper()
	ctx := context.Background()
	conn := transport.NewLoopback(node.Mux)
	var look det.LookupReply
	if err := conn.Call(ctx, det.Service, "lookup", det.LookupArgs{Schema: "obs", Field: "code", CT: []byte("ct-glucose")}, &look); err != nil {
		t.Fatal(err)
	}
	var scan rnd.ScanReply
	if err := conn.Call(ctx, rnd.Service, "scan", rnd.ScanArgs{Schema: "obs", Field: "f"}, &scan); err != nil {
		t.Fatal(err)
	}
	emmFields, err := node.KV.HFields([]byte("emm/obs/label"))
	if err != nil {
		t.Fatal(err)
	}
	zmf, _, err := node.KV.Get([]byte("zmf/obs/label"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{"det": look.DocIDs, "rnd": scan.Items, "emm": emmFields, "zmf": zmf}
}

// TestDocNamespaceIsolation: documents and index entries share one store
// without seeing each other, even when a collection is named like an index
// namespace or exactly like an index key.
func TestDocNamespaceIsolation(t *testing.T) {
	node, err := NewNode(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx := context.Background()
	conn := transport.NewLoopback(node.Mux)

	// Index entries: a DET set, an RND column (hash rndidx/obs/f), and keys
	// of the emm and zmf namespaces.
	for _, id := range []string{"x1", "x2"} {
		if err := conn.Call(ctx, det.Service, "add", cell.Args{Schema: "obs", Field: "code", CT: []byte("ct-glucose"), DocID: id}, nil); err != nil {
			t.Fatal(err)
		}
		if err := conn.Call(ctx, rnd.Service, "put", cell.Args{Schema: "obs", Field: "f", CT: []byte("ct-" + id), DocID: id}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.KV.HSet([]byte("emm/obs/label"), []byte("0"), []byte("cell")); err != nil {
		t.Fatal(err)
	}
	if err := node.KV.Set([]byte("zmf/obs/label"), []byte("filter")); err != nil {
		t.Fatal(err)
	}
	stats := func() StatsReply {
		var st StatsReply
		if err := conn.Call(ctx, AdminService, "stats", nil, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	before, indexBefore := indexReads(t, node), stats().Namespaces

	// Documents in collections named like the index namespaces.
	collections := []string{"detidx", "emm", "rndidx/obs/f", "zmf"}
	for i, col := range collections {
		for j := 0; j <= i; j++ {
			id := fmt.Sprintf("x%d", j+1)
			if err := conn.Call(ctx, DocService, "put", DocPutArgs{Collection: col, ID: id, Blob: []byte(col + "/" + id), IfAbsent: true}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	if got, err := node.Docs.Collections(); err != nil || !reflect.DeepEqual(got, collections) {
		t.Errorf("Collections = %v, %v; want %v", got, err, collections)
	}
	for i, col := range collections {
		var count DocCountReply
		if err := conn.Call(ctx, DocService, "count", DocCountArgs{Collection: col}, &count); err != nil || count.Count != i+1 {
			t.Errorf("count %s = %d, %v; want %d", col, count.Count, err, i+1)
		}
		var scan DocScanReply
		if err := conn.Call(ctx, DocService, "scan", DocScanArgs{Collection: col}, &scan); err != nil || len(scan.Records) != i+1 {
			t.Fatalf("scan %s = %d records, %v; want %d", col, len(scan.Records), err, i+1)
		}
		for _, r := range scan.Records {
			if want := col + "/" + r.ID; string(r.Blob) != want {
				t.Errorf("scan %s: record %s holds %q, want %q", col, r.ID, r.Blob, want)
			}
		}
	}
	st := stats()
	wantCols := map[string]int{"detidx": 1, "emm": 2, "rndidx/obs/f": 3, "zmf": 4}
	if !reflect.DeepEqual(st.Collections, wantCols) {
		t.Errorf("admin.stats Collections = %v, want %v", st.Collections, wantCols)
	}
	if st.Namespaces["doc"].Items != 10 {
		t.Errorf("admin.stats doc namespace = %+v, want 10 items", st.Namespaces["doc"])
	}
	delete(st.Namespaces, "doc")
	if !reflect.DeepEqual(st.Namespaces, indexBefore) {
		t.Errorf("admin.stats index namespaces moved: %v, was %v", st.Namespaces, indexBefore)
	}
	if after := indexReads(t, node); !reflect.DeepEqual(after, before) {
		t.Errorf("index reads changed by documents:\n got  %v\n want %v", after, before)
	}
}

// The crash child of TestNodeCrashRecovery reads its directory from here.
const nodeCrashEnvDir = "CLOUD_NODE_CRASH_DIR"

// TestNodeCrashHelper is not a real test: it is the body of the
// crash-injected child process. Four writers each send one _batch.exec per
// document — its doc.put (IfAbsent) and its RND cell — to a one-store node
// under fsync=always, and record the id in a ledger after the batch is
// acknowledged, until the process is killed.
func TestNodeCrashHelper(t *testing.T) {
	dir := os.Getenv(nodeCrashEnvDir)
	if dir == "" {
		t.Skip("crash helper: driven by TestNodeCrashRecovery")
	}
	node, err := NewNode(Options{KVPath: filepath.Join(dir, "index"), FsyncPolicy: "always"})
	if err != nil {
		t.Fatalf("helper open: %v", err)
	}
	ledger, err := os.OpenFile(filepath.Join(dir, "ledger"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatalf("helper ledger: %v", err)
	}
	conn := transport.NewLoopback(node.Mux)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("w%d-%d", g, i)
				res, err := transport.CallBatch(context.Background(), conn, []transport.BatchCall{
					{Service: DocService, Method: "put", Args: DocPutArgs{Collection: "obs", ID: id, Blob: []byte("doc-" + id), IfAbsent: true}},
					{Service: rnd.Service, Method: "put", Args: cell.Args{Schema: "obs", Field: "f", CT: []byte("cell-" + id), DocID: id}},
				})
				if err != nil {
					return
				}
				for _, r := range res {
					if r.Err != nil {
						return
					}
				}
				// One unbuffered write per ack: surviving SIGKILL needs
				// only the page cache.
				mu.Lock()
				fmt.Fprintf(ledger, "%s\n", id)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

// TestNodeCrashRecovery kills a node's process mid-stream under
// fsync=always. The reopened node must hold every acknowledged document
// and its index cell.
func TestNodeCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a crash-injected child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestNodeCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), nodeCrashEnvDir+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting child: %v", err)
	}
	ledgerPath := filepath.Join(dir, "ledger")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fi, err := os.Stat(ledgerPath); err == nil && fi.Size() > 4096 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("child acknowledged no writes in 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd.Wait() //nolint:errcheck // killed by design

	node, err := NewNode(Options{KVPath: filepath.Join(dir, "index")})
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer node.Close()

	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		acked = append(acked, sc.Text())
	}
	// Only newline-terminated entries are completed acks.
	if len(raw) > 0 && raw[len(raw)-1] != '\n' && len(acked) > 0 {
		acked = acked[:len(acked)-1]
	}
	if len(acked) == 0 {
		t.Fatal("ledger empty; crash test proved nothing")
	}

	ctx := context.Background()
	conn := transport.NewLoopback(node.Mux)
	var docs DocGetManyReply
	if err := conn.Call(ctx, DocService, "getmany", DocGetManyArgs{Collection: "obs", IDs: acked}, &docs); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string, len(docs.Records))
	for _, r := range docs.Records {
		got[r.ID] = string(r.Blob)
	}
	var cells rnd.ScanReply
	if err := conn.Call(ctx, rnd.Service, "scan", rnd.ScanArgs{Schema: "obs", Field: "f"}, &cells); err != nil {
		t.Fatal(err)
	}
	gotCells := make(map[string]string, len(cells.Items))
	for _, c := range cells.Items {
		gotCells[c.DocID] = string(c.CT)
	}
	for _, id := range acked {
		if got[id] != "doc-"+id {
			t.Fatalf("acked document %s lost after SIGKILL: %q", id, got[id])
		}
		if gotCells[id] != "cell-"+id {
			t.Fatalf("acked cell of %s lost after SIGKILL: %q", id, gotCells[id])
		}
	}
	t.Logf("verified %d acknowledged documents and their cells survived SIGKILL", len(acked))
}
