package datablinder_test

// Sharded-tier end-to-end test: three real cloud nodes served over TCP,
// fronted by the gateway's consistent-hash ring, running the full mixed
// workload — insert, equality (DET / Mitra / Sophos / RND), boolean
// (BIEX And/Or), range (OPE and ORE), Paillier sum/avg, count, get,
// fetch, update, delete — and asserting that every query class returns
// results identical to an unsharded single-node deployment holding the
// same documents. Any gateway call site missed during the single-node →
// ring conversion fails loudly here: a keyless RPC on a multi-shard
// connection is an error by construction.
//
// The test is deliberately run in CI under -race: the sharded paths
// scatter concurrently across shards, so it also exercises the merge
// machinery for data races.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"datablinder"
	"datablinder/internal/cloud"
	"datablinder/internal/transport"
)

// shardedSchema covers every query class and every tactic family the
// sharded tier routes differently: DET point lookups, BIEX boolean,
// Mitra and Sophos SSE, OPE and ORE ranges, RND scatter-scan equality,
// Paillier aggregates.
func shardedSchema() *datablinder.Schema {
	return &datablinder.Schema{
		Name: "observation",
		Fields: []datablinder.Field{
			datablinder.PlainField("identifier", datablinder.TypeString),
			datablinder.MustField("status", datablinder.TypeString, "C5, op [I, EQ, BL], tactic [DET, BIEX-2Lev]"),
			datablinder.MustField("code", datablinder.TypeString, "C5, op [I, EQ, BL], tactic [DET, BIEX-2Lev]"),
			datablinder.MustField("subject", datablinder.TypeString, "C2, op [I, EQ], tactic [Mitra]"),
			datablinder.MustField("performer", datablinder.TypeString, "C2, op [I, EQ], tactic [Sophos]"),
			datablinder.MustField("note", datablinder.TypeString, "C1, op [I, EQ], tactic [RND]"),
			// effective carries BL too: its 60 distinct values give the
			// keyword-partitioned BIEX index enough routing labels to reach
			// every shard, which the spread assertion below depends on.
			datablinder.MustField("effective", datablinder.TypeInt, "C5, op [I, RG, BL], tactic [OPE, BIEX-2Lev]"),
			datablinder.MustField("amount", datablinder.TypeInt, "C5, op [I, RG], tactic [ORE]"),
			datablinder.MustField("value", datablinder.TypeFloat, "C5, op [I, EQ], agg [sum, avg], tactic [DET, Paillier]"),
		},
	}
}

// startShard brings up one real cloud node on a TCP listener and returns
// its address.
func startShard(t *testing.T) string {
	t.Helper()
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	srv := transport.NewServer(node.Mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// shardedDoc builds the i-th deterministic document. Fixed IDs keep the
// two deployments comparable document-for-document.
func shardedDoc(i int) *datablinder.Document {
	statuses := []string{"final", "preliminary", "amended", "draft", "registered"}
	codes := []string{"glucose", "cholesterol", "heart-rate", "bmi", "hemoglobin"}
	return &datablinder.Document{
		ID: fmt.Sprintf("doc-%03d", i),
		Fields: map[string]any{
			"identifier": fmt.Sprintf("obs-%03d", i),
			"status":     statuses[i%len(statuses)],
			"code":       codes[i%len(codes)],
			"subject":    fmt.Sprintf("patient-%02d", i%12),
			"performer":  fmt.Sprintf("dr-%02d", i%7),
			"note":       fmt.Sprintf("note text %d", i%9),
			"effective":  int64(1600000000 + i*1000),
			"amount":     int64((i * 37) % 500),
			"value":      float64(10 + i%50),
		},
	}
}

func sortedIDs(t *testing.T, col *datablinder.Collection, q datablinder.Predicate) []string {
	t.Helper()
	ids, err := col.SearchIDs(context.Background(), q)
	if err != nil {
		t.Fatalf("search %+v: %v", q, err)
	}
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

func TestShardedTierMatchesSingleNode(t *testing.T) {
	ctx := context.Background()

	addrs := []string{startShard(t), startShard(t), startShard(t)}
	sharded, err := datablinder.Open(ctx, datablinder.Options{CloudAddrs: addrs})
	if err != nil {
		t.Fatalf("opening sharded client: %v", err)
	}
	defer sharded.Close()

	single, err := datablinder.Open(ctx, datablinder.Options{InProcessCloud: true})
	if err != nil {
		t.Fatalf("opening single-node client: %v", err)
	}
	defer single.Close()

	schema := shardedSchema()
	for _, c := range []*datablinder.Client{sharded, single} {
		if err := c.RegisterSchema(ctx, schema); err != nil {
			t.Fatalf("registering schema: %v", err)
		}
	}
	shardedCol := sharded.Entities(schema.Name)
	singleCol := single.Entities(schema.Name)

	const seqDocs = 48
	for i := 0; i < seqDocs; i++ {
		for _, col := range []*datablinder.Collection{shardedCol, singleCol} {
			if _, err := col.Insert(ctx, shardedDoc(i)); err != nil {
				t.Fatalf("inserting doc %d: %v", i, err)
			}
		}
	}

	// The remaining documents load concurrently: several callers in flight
	// at once is the regime the gateway's write coalescer merges, so this
	// phase exercises group commit against both deployments and the
	// identity assertions below prove coalesced writes land exactly like
	// sequential ones.
	const docs = 60
	var wg sync.WaitGroup
	insertErrs := make(chan error, (docs-seqDocs)*2)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := seqDocs + w; i < docs; i += 6 {
				for _, col := range []*datablinder.Collection{shardedCol, singleCol} {
					if _, err := col.Insert(ctx, shardedDoc(i)); err != nil {
						insertErrs <- fmt.Errorf("concurrent insert doc %d: %w", i, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(insertErrs)
	for err := range insertErrs {
		t.Fatal(err)
	}

	// Both deployments must agree on every query class. Result sets are
	// compared sorted: the sharded tier's merge order for multi-shard
	// gathers is not required to match single-node posting order.
	sameIDs := func(name string, q datablinder.Predicate) {
		t.Helper()
		got, want := sortedIDs(t, shardedCol, q), sortedIDs(t, singleCol, q)
		if len(want) == 0 {
			t.Fatalf("%s: single-node returned no results — query exercises nothing", name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: sharded %v != single-node %v", name, got, want)
		}
	}

	sameIDs("equality DET status", datablinder.Eq{Field: "status", Value: "final"})
	sameIDs("equality DET value", datablinder.Eq{Field: "value", Value: float64(12)})
	sameIDs("equality Mitra subject", datablinder.Eq{Field: "subject", Value: "patient-03"})
	sameIDs("equality Sophos performer", datablinder.Eq{Field: "performer", Value: "dr-02"})
	sameIDs("equality RND note", datablinder.Eq{Field: "note", Value: "note text 4"})
	sameIDs("boolean BIEX and", datablinder.And{Preds: []datablinder.Predicate{
		datablinder.Eq{Field: "status", Value: "final"},
		datablinder.Eq{Field: "code", Value: "glucose"},
	}})
	sameIDs("boolean or", datablinder.Or{Preds: []datablinder.Predicate{
		datablinder.Eq{Field: "status", Value: "draft"},
		datablinder.Eq{Field: "code", Value: "bmi"},
	}})
	// Boolean edge cases under sharding: a conjunction repeating its anchor
	// literal, a conjunction spanning a high-cardinality keyword (the
	// anchor and constraint live on different shards with high probability),
	// and an empty-result conjunction.
	sameIDs("boolean duplicate anchor", datablinder.And{Preds: []datablinder.Predicate{
		datablinder.Eq{Field: "status", Value: "final"},
		datablinder.Eq{Field: "status", Value: "final"},
		datablinder.Eq{Field: "code", Value: "glucose"},
	}})
	sameIDs("boolean high-cardinality keyword", datablinder.And{Preds: []datablinder.Predicate{
		datablinder.Eq{Field: "status", Value: "final"},
		datablinder.Eq{Field: "effective", Value: int64(1600000000)},
	}})
	// A negated literal beside a positive pair: candidates must come from
	// the anchor's global cells, not from the pair list alone.
	sameIDs("boolean negation", datablinder.And{Preds: []datablinder.Predicate{
		datablinder.Eq{Field: "status", Value: "final"},
		datablinder.Eq{Field: "code", Value: "glucose"},
		datablinder.Not{Pred: datablinder.Eq{Field: "effective", Value: int64(1600000000)}},
	}})
	// status and code cycle in lockstep (both i%5), so "final" never
	// co-occurs with "cholesterol": both deployments must agree on empty.
	emptyQ := datablinder.And{Preds: []datablinder.Predicate{
		datablinder.Eq{Field: "status", Value: "final"},
		datablinder.Eq{Field: "code", Value: "cholesterol"},
	}}
	if got, want := sortedIDs(t, shardedCol, emptyQ), sortedIDs(t, singleCol, emptyQ); len(got) != 0 || len(want) != 0 {
		t.Errorf("empty conjunction: sharded %v, single-node %v — want both empty", got, want)
	}
	sameIDs("range OPE effective", datablinder.Between("effective", int64(1600010000), int64(1600040000)))
	sameIDs("range ORE amount", datablinder.Between("amount", int64(100), int64(300)))
	sameIDs("mixed and (range + eq)", datablinder.And{Preds: []datablinder.Predicate{
		datablinder.Between("effective", int64(1600000000), int64(1600030000)),
		datablinder.Eq{Field: "status", Value: "preliminary"},
	}})

	// Paillier aggregates: per-shard partial sums are combined
	// homomorphically at the gateway, so the result must be exact.
	for _, agg := range []datablinder.Agg{"sum", "avg"} {
		got, err := shardedCol.Aggregate(ctx, "value", agg, nil)
		if err != nil {
			t.Fatalf("sharded %s: %v", agg, err)
		}
		want, err := singleCol.Aggregate(ctx, "value", agg, nil)
		if err != nil {
			t.Fatalf("single-node %s: %v", agg, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s(value): sharded %g != single-node %g", agg, got, want)
		}
	}
	gotFiltered, err := shardedCol.Aggregate(ctx, "value", "sum", datablinder.Eq{Field: "status", Value: "final"})
	if err != nil {
		t.Fatalf("sharded filtered sum: %v", err)
	}
	wantFiltered, err := singleCol.Aggregate(ctx, "value", "sum", datablinder.Eq{Field: "status", Value: "final"})
	if err != nil {
		t.Fatalf("single-node filtered sum: %v", err)
	}
	if math.Abs(gotFiltered-wantFiltered) > 1e-9 {
		t.Errorf("filtered sum(value): sharded %g != single-node %g", gotFiltered, wantFiltered)
	}

	// Count scatter-sums document counts across shards.
	gotCount, err := shardedCol.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gotCount != docs {
		t.Errorf("sharded count = %d, want %d", gotCount, docs)
	}

	// Get decrypts a single routed document; full Search exercises the
	// cross-shard getmany reassembly, which must preserve the id order the
	// search produced.
	doc, err := shardedCol.Get(ctx, "doc-017")
	if err != nil {
		t.Fatalf("sharded get: %v", err)
	}
	if doc.Fields["identifier"] != "obs-017" {
		t.Errorf("get doc-017: identifier = %v", doc.Fields["identifier"])
	}
	results, err := shardedCol.Search(ctx, datablinder.Eq{Field: "status", Value: "final"})
	if err != nil {
		t.Fatalf("sharded search with fetch: %v", err)
	}
	fetchedIDs := make([]string, len(results))
	for i, d := range results {
		fetchedIDs[i] = d.ID
	}
	searchIDs, err := shardedCol.SearchIDs(ctx, datablinder.Eq{Field: "status", Value: "final"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fetchedIDs) != fmt.Sprint(searchIDs) {
		t.Errorf("fetch reordered results: docs %v, ids %v", fetchedIDs, searchIDs)
	}

	// Update and delete route through the ring too; both deployments must
	// stay in lockstep afterwards.
	for _, col := range []*datablinder.Collection{shardedCol, singleCol} {
		upd := shardedDoc(5)
		upd.Fields["status"] = "amended"
		if err := col.Update(ctx, upd); err != nil {
			t.Fatalf("update: %v", err)
		}
		if err := col.Delete(ctx, "doc-010"); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	sameIDs("equality after update", datablinder.Eq{Field: "status", Value: "amended"})
	sameIDs("equality after delete", datablinder.Eq{Field: "status", Value: "final"})
	if _, err := shardedCol.Get(ctx, "doc-010"); err == nil {
		t.Error("get deleted doc-010: want error, got nil")
	}

	// The coalescer must actually have been on the write path of the
	// sharded deployment: every document insert funnels through it.
	// (Trigger mix and merge counts are timing-dependent, so only the
	// invariants are asserted.)
	cs := sharded.CoalesceStats()
	if cs.Enqueued == 0 || cs.Flushes == 0 {
		t.Errorf("coalescer saw no traffic: %+v", cs)
	}
	if cs.QueueDepth != 0 {
		t.Errorf("coalescer queue not empty after quiescence: depth %d", cs.QueueDepth)
	}

	// The documents must actually be spread over the three shards — a
	// routing bug that funnels everything to one node would still pass the
	// equality checks above. The BIEX index must spread too: the emm + zmf
	// kvstore namespaces (written only by BIEX) must hold keys on every
	// shard. A regression back to namespace pinning piles everything on one
	// shard and fails that check. How evenly the cells spread is not
	// asserted: ~10 enum keywords own most of them, so the split is a
	// consistent-hash draw of 10 heavy labels over 3 shards, and any fixed
	// bound on it fails for some master keys.
	spread := 0
	biexSpread := 0
	biexKeys := make([]int, len(addrs))
	for i, addr := range addrs {
		conn, err := transport.Dial(addr, transport.DialOptions{})
		if err != nil {
			t.Fatalf("dialing shard %d: %v", i, err)
		}
		var st cloud.StatsReply
		if err := conn.Call(ctx, cloud.AdminService, "stats", nil, &st); err != nil {
			conn.Close()
			t.Fatalf("stats on shard %d: %v", i, err)
		}
		conn.Close()
		if st.Collections[schema.Name] > 0 {
			spread++
		}
		biexKeys[i] = st.Namespaces["emm"].Keys + st.Namespaces["zmf"].Keys
		if biexKeys[i] > 0 {
			biexSpread++
		}
	}
	if spread < 2 {
		t.Errorf("documents landed on %d of %d shards — ring routing is not spreading", spread, len(addrs))
	}
	if biexSpread < len(addrs) {
		t.Errorf("BIEX index keys on %d of %d shards (%v) — keyword partitioning is not spreading", biexSpread, len(addrs), biexKeys)
	}

	// A blob missing in the middle of a result set: drop one document's
	// blob behind the gateway's back (its index entries stay), and the
	// cross-shard getmany reassembly must skip exactly that id and keep
	// every other document in the order the search produced. (A result
	// set never repeats an id, so the duplicate-id case of the reassembly
	// is covered in internal/core's TestFetchShardedReassembly.)
	finalQ := datablinder.Eq{Field: "status", Value: "final"}
	before, err := shardedCol.SearchIDs(ctx, finalQ)
	if err != nil || len(before) < 3 {
		t.Fatalf("search before dropping a blob: %v, %v", before, err)
	}
	victim := before[len(before)/2]
	dropped := 0
	for i, addr := range addrs {
		conn, err := transport.Dial(addr, transport.DialOptions{})
		if err != nil {
			t.Fatalf("dialing shard %d: %v", i, err)
		}
		err = conn.Call(ctx, cloud.DocService, "delete", cloud.DocDeleteArgs{Collection: schema.Name, ID: victim}, nil)
		conn.Close()
		if err == nil {
			dropped++
		} else if !transport.IsNotFoundError(err) {
			t.Fatalf("dropping %s on shard %d: %v", victim, i, err)
		}
	}
	if dropped != 1 {
		t.Fatalf("%s was held by %d shards, want 1", victim, dropped)
	}
	var want []string
	for _, id := range before {
		if id != victim {
			want = append(want, id)
		}
	}
	results, err = shardedCol.Search(ctx, finalQ)
	if err != nil {
		t.Fatalf("search with a blob missing: %v", err)
	}
	var got []string
	for _, d := range results {
		got = append(got, d.ID)
		if wantIdent := "obs-" + d.ID[len("doc-"):]; d.Fields["identifier"] != wantIdent {
			t.Errorf("%s came back with identifier %v, want %s", d.ID, d.Fields["identifier"], wantIdent)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fetch with %s missing: got %v, want %v", victim, got, want)
	}
}
