package datablinder_test

// Persistence end-to-end test: a three-shard cloud tier with real TCP
// transport and WAL-backed stores is loaded with the full mixed corpus,
// torn down completely (client closed, servers stopped, nodes closed),
// and brought back up from the on-disk logs on fresh ports. The reopened
// gateway — recovering its own tactic counters and schemas from its WAL —
// must answer every query class with exactly the results recorded before
// the restart, and writes issued after recovery must behave normally.
//
// Ring placement is positional, so restarting on different ports is fine
// as long as the data directories are passed in the same order.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"datablinder"
	"datablinder/internal/cloud"
	"datablinder/internal/transport"
)

// startPersistentShard brings up one cloud node persisting under dir and
// returns its address plus a stop function that shuts the node down
// cleanly (flushing and closing its WAL).
func startPersistentShard(t *testing.T, dir string) (string, func()) {
	t.Helper()
	node, err := cloud.NewNode(cloud.Options{
		KVPath:      filepath.Join(dir, "index"),
		FsyncPolicy: "always",
	})
	if err != nil {
		t.Fatalf("opening persistent shard in %s: %v", dir, err)
	}
	srv := transport.NewServer(node.Mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		node.Close()
		t.Fatal(err)
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		srv.Close()
		if err := node.Close(); err != nil {
			t.Errorf("closing shard %s: %v", dir, err)
		}
	}
	t.Cleanup(stop)
	return addr, stop
}

func TestPersistenceSurvivesShardRestart(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	keyPath := filepath.Join(root, "master.key")
	statePath := filepath.Join(root, "gateway-state")
	shardDirs := []string{
		filepath.Join(root, "shard-0"),
		filepath.Join(root, "shard-1"),
		filepath.Join(root, "shard-2"),
	}

	openTier := func() (*datablinder.Client, []func()) {
		addrs := make([]string, len(shardDirs))
		stops := make([]func(), len(shardDirs))
		for i, dir := range shardDirs {
			addrs[i], stops[i] = startPersistentShard(t, dir)
		}
		client, err := datablinder.Open(ctx, datablinder.Options{
			CloudAddrs:     addrs,
			MasterKeyPath:  keyPath,
			CreateKey:      true,
			LocalStatePath: statePath,
			FsyncPolicy:    "always",
		})
		if err != nil {
			t.Fatalf("opening gateway: %v", err)
		}
		return client, stops
	}

	// Queries covering every index family the WAL has to reconstruct:
	// DET equality, BIEX boolean, Mitra/Sophos SSE, OPE/ORE ranges.
	queries := map[string]datablinder.Predicate{
		"equality DET":    datablinder.Eq{Field: "status", Value: "final"},
		"equality Mitra":  datablinder.Eq{Field: "subject", Value: "patient-03"},
		"equality Sophos": datablinder.Eq{Field: "performer", Value: "dr-02"},
		"boolean BIEX": datablinder.And{Preds: []datablinder.Predicate{
			datablinder.Eq{Field: "status", Value: "final"},
			datablinder.Eq{Field: "code", Value: "glucose"},
		}},
		"range OPE": datablinder.Between("effective", int64(1600010000), int64(1600040000)),
		"range ORE": datablinder.Between("amount", int64(100), int64(300)),
	}

	const docs = 60
	schema := shardedSchema()
	before := make(map[string][]string)

	client, stops := openTier()
	if err := client.RegisterSchema(ctx, schema); err != nil {
		t.Fatalf("registering schema: %v", err)
	}
	col := client.Entities(schema.Name)
	for i := 0; i < docs; i++ {
		if _, err := col.Insert(ctx, shardedDoc(i)); err != nil {
			t.Fatalf("inserting doc %d: %v", i, err)
		}
	}
	for name, q := range queries {
		before[name] = sortedIDs(t, col, q)
		if len(before[name]) == 0 {
			t.Fatalf("%s: no results before restart — query exercises nothing", name)
		}
	}
	sumBefore, err := col.Aggregate(ctx, "value", "sum", nil)
	if err != nil {
		t.Fatalf("sum before restart: %v", err)
	}

	// Full teardown: gateway first (flushes its state WAL), then every
	// shard (WAL flush + close).
	if err := client.Close(); err != nil {
		t.Fatalf("closing gateway: %v", err)
	}
	for _, stop := range stops {
		stop()
	}

	// Cold start from disk on fresh ports, same directory order.
	client, _ = openTier()
	defer client.Close()
	col = client.Entities(schema.Name)

	for name, q := range queries {
		got := sortedIDs(t, col, q)
		if fmt.Sprint(got) != fmt.Sprint(before[name]) {
			t.Errorf("%s after restart: %v, want %v", name, got, before[name])
		}
	}
	sumAfter, err := col.Aggregate(ctx, "value", "sum", nil)
	if err != nil {
		t.Fatalf("sum after restart: %v", err)
	}
	if sumAfter != sumBefore {
		t.Errorf("sum(value) after restart = %g, want %g", sumAfter, sumBefore)
	}
	n, err := col.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != docs {
		t.Errorf("count after restart = %d, want %d", n, docs)
	}
	doc, err := col.Get(ctx, "doc-017")
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if doc.Fields["identifier"] != "obs-017" {
		t.Errorf("get doc-017 after restart: identifier = %v", doc.Fields["identifier"])
	}

	// The recovered tier must keep accepting writes: tactic counters
	// (Sophos/Mitra update state, BIEX spill logic) restart from the
	// recovered gateway WAL, so a fresh insert is the real proof the
	// recovered state is internally consistent, not just readable.
	if _, err := col.Insert(ctx, shardedDoc(docs)); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
	got := sortedIDs(t, col, datablinder.Eq{Field: "status", Value: "final"})
	want := append(append([]string(nil), before["equality DET"]...), fmt.Sprintf("doc-%03d", docs))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("equality DET after post-restart insert: %v, want %v", got, want)
	}
	if err := col.Delete(ctx, "doc-010"); err != nil {
		t.Fatalf("delete after restart: %v", err)
	}
	if _, err := col.Get(ctx, "doc-010"); err == nil {
		t.Error("get deleted doc-010 after restart: want error, got nil")
	}
}
