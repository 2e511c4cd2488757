package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/model"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// benchObservation is the document the end-to-end benchmark inserts
// (benchmark/load/gen.go): eight flat fields of the §5.2 schema.
func benchObservation() *model.Document {
	return &model.Document{ID: "pre-0001234", Fields: map[string]any{
		"identifier": "001234",
		"status":     "preliminary",
		"code":       "blood-pressure",
		"subject":    "patient-000417",
		"effective":  int64(1546300800),
		"issued":     int64(1547682317),
		"performer":  "dr-017",
		"value":      118.25,
	}}
}

func observationRuntime(t testing.TB) *schemaRuntime {
	t.Helper()
	rt, err := registeredEnv(t).engine.runtime("observation")
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestSealOpenDocRoundTrip(t *testing.T) {
	rt := observationRuntime(t)
	doc := benchObservation()
	blob, err := rt.sealDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rt.openDoc(doc.ID, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("openDoc(sealDoc(d)) = %#v, want %#v", got, doc)
	}
	// The id is the associated data: a blob does not open under another id.
	if _, err := rt.openDoc("pre-0001235", blob); err == nil {
		t.Fatal("blob opened under a different document id")
	}
	// Scratch buffers are recycled; an earlier result must not change when
	// a later call reuses them.
	other := obs("f999", "final", "glucose", "someone-else", 1, "x", 2)
	blob2, err := rt.sealDoc(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.openDoc(other.ID, blob2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, doc) {
		t.Fatalf("a later openDoc changed an earlier result: %#v", got)
	}
}

// TestStoredTypesThroughEngine: what Get returns after Insert, for the
// numeric representations callers hand in and for values JSON could not
// carry.
func TestStoredTypesThroughEngine(t *testing.T) {
	env := newEnv(t)
	ctx := context.Background()
	schema := &model.Schema{Name: "plain", Fields: []model.Field{
		{Name: "s", Type: model.TypeString},
		{Name: "i", Type: model.TypeInt},
		{Name: "f", Type: model.TypeFloat},
		{Name: "b", Type: model.TypeBool},
	}}
	if err := env.engine.RegisterSchema(ctx, schema); err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct{ in, want map[string]any }{
		"integral-float-for-int": {map[string]any{"i": float64(12)}, map[string]any{"i": int64(12)}},
		"int64-for-float":        {map[string]any{"f": int64(-3)}, map[string]any{"f": float64(-3)}},
		"beyond-2-53":            {map[string]any{"i": int64(-1)<<53 - 1}, map[string]any{"i": int64(-1)<<53 - 1}},
		"bool-and-empty-string":  {map[string]any{"b": false, "s": ""}, map[string]any{"b": false, "s": ""}},
		"positive-infinity":      {map[string]any{"f": math.Inf(1)}, map[string]any{"f": math.Inf(1)}},
		"sparse":                 {map[string]any{}, map[string]any{}},
	}
	for id, tc := range cases {
		if _, err := env.engine.Insert(ctx, "plain", &model.Document{ID: id, Fields: tc.in}); err != nil {
			t.Fatalf("%s: Insert: %v", id, err)
		}
		got, err := env.engine.Get(ctx, "plain", id)
		if err != nil {
			t.Fatalf("%s: Get: %v", id, err)
		}
		if !reflect.DeepEqual(got.Fields, tc.want) {
			t.Errorf("%s: Get = %#v, want %#v", id, got.Fields, tc.want)
		}
	}
	if _, err := env.engine.Insert(ctx, "plain", &model.Document{ID: "nan", Fields: map[string]any{"f": math.NaN()}}); err != nil {
		t.Fatalf("Insert(NaN): %v", err)
	}
	got, err := env.engine.Get(ctx, "plain", "nan")
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := got.Fields["f"].(float64); !ok || !math.IsNaN(f) {
		t.Errorf("NaN came back as %#v", got.Fields["f"])
	}
}

// TestLegacyJSONBlobRejected: a blob sealed the way the engine sealed
// documents before the codec (JSON inside the AEAD) authenticates but is
// not decoded; the error is model.ErrDocFormat, names the document, and the
// stored blob is left as it was.
func TestLegacyJSONBlobRejected(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()
	rt, err := env.engine.runtime("observation")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := json.Marshal(obs("f002", "final", "glucose", "jane-roe", 1360966610, "mary-major", 5.1).Fields)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := rt.aead.Seal(pt, []byte("f002"))
	if err != nil {
		t.Fatal(err)
	}
	if err := env.node.Docs.Put("observation", "f002", legacy); err != nil {
		t.Fatal(err)
	}

	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, model.ErrDocFormat) {
			t.Fatalf("%s: err = %v, want model.ErrDocFormat", what, err)
		}
		if !strings.Contains(err.Error(), "f002") {
			t.Errorf("%s: error does not name the document: %v", what, err)
		}
	}
	_, err = env.engine.Get(ctx, "observation", "f002")
	check("Get", err)
	_, err = env.engine.Fetch(ctx, "observation", []string{"f001", "f002", "f003"})
	check("Fetch", err)
	_, err = env.engine.Search(ctx, "observation", Eq{Field: "subject", Value: "jane-roe"})
	check("Search", err)

	after, err := env.node.Docs.Get("observation", "f002")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, legacy) {
		t.Fatal("the rejected blob was rewritten")
	}
	// Its neighbours are unaffected.
	if _, err := env.engine.Get(ctx, "observation", "f001"); err != nil {
		t.Fatalf("Get(f001): %v", err)
	}
}

// TestOpenDocAllocs pins what opening the benchmark's observation costs in
// allocations: the Document, its map (header plus one bucket array), and one
// boxed value per field — two for a string, whose bytes are copied out of
// the scratch buffer. The JSON path this replaced needed 80.
func TestOpenDocAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are not stable")
	}
	rt := observationRuntime(t)
	doc := benchObservation()
	blob, err := rt.sealDoc(doc)
	if err != nil {
		t.Fatal(err)
	}
	waitMaskFillers(t)
	got := testing.AllocsPerRun(200, func() {
		if _, err := rt.openDoc(doc.ID, blob); err != nil {
			t.Fatal(err)
		}
	})
	// 1 Document + 2 map + 5 strings x 2 + 2 ints + 1 float.
	if got > 16 {
		t.Errorf("openDoc allocates %v times per document, want at most 16", got)
	}
}

// waitMaskFillers waits until no Paillier mask-pool filler is running. Each
// engine that sets up a Paillier tactic — this one, and every engine an
// earlier test of the package built — starts one that computes up to 128
// masks in the background, and AllocsPerRun counts the mallocs of every
// goroutine. A filler added up to about a hundred mallocs to a window of
// 200 openDoc calls; 200 of them read as a seventeenth allocation each.
func waitMaskFillers(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		if !bytes.Contains(buf[:n], []byte("paillier.(*randPool)")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("Paillier mask-pool fillers still running after a minute")
		}
	}
}

var docSink any

func BenchmarkSealDoc(b *testing.B) {
	rt := observationRuntime(b)
	doc := benchObservation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := rt.sealDoc(doc)
		if err != nil {
			b.Fatal(err)
		}
		docSink = blob
	}
}

func BenchmarkOpenDoc(b *testing.B) {
	rt := observationRuntime(b)
	doc := benchObservation()
	blob, err := rt.sealDoc(doc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := rt.openDoc(doc.ID, blob)
		if err != nil {
			b.Fatal(err)
		}
		docSink = d
	}
}

// TestFetchShardedReassembly: on a three-shard ring Fetch returns what a
// single node returns for the same id list — request order kept, missing
// ids skipped wherever they sit, a repeated id returned once per mention.
func TestFetchShardedReassembly(t *testing.T) {
	ctx := context.Background()
	single := registeredEnv(t)

	conns := make([]transport.Conn, 3)
	for i := range conns {
		node, err := cloud.NewNode(cloud.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		conns[i] = transport.NewLoopback(node.Mux)
	}
	reg, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewEngine(Config{Keys: single.keys, Cloud: ring.NewClient(conns, 0), Local: kvstore.New(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if err := sharded.RegisterSchema(ctx, observationSchema()); err != nil {
		t.Fatal(err)
	}

	const n = 24
	id := func(i int) string { return fmt.Sprintf("d%02d", i) }
	routes := make([]string, n)
	for i := 0; i < n; i++ {
		routes[i] = docRoute("observation", id(i))
		for _, e := range []*Engine{single.engine, sharded} {
			if _, err := e.Insert(ctx, "observation", obs(id(i), "final", "glucose", "john-doe", int64(i), "john-smith", float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if spread := len(sharded.shards.Split(routes)); spread != 3 {
		t.Fatalf("documents landed on %d shards, want 3", spread)
	}

	lists := map[string][]string{
		"all, reversed":          nil,
		"missing in the middle":  {id(3), id(4), "absent-1", id(5), id(6), "absent-2", id(7)},
		"missing first and last": {"absent-1", id(9), id(1), "absent-2"},
		"only missing":           {"absent-1", "absent-2"},
		"duplicates":             {id(2), id(8), id(2), id(2), id(11), id(8)},
		"duplicates and missing": {id(2), "absent-1", id(2), id(20), "absent-1", id(20), id(2)},
	}
	for i := n - 1; i >= 0; i-- {
		lists["all, reversed"] = append(lists["all, reversed"], id(i))
	}
	for name, ids := range lists {
		want, err := single.engine.Fetch(ctx, "observation", ids)
		if err != nil {
			t.Fatalf("%s: single-node Fetch: %v", name, err)
		}
		got, err := sharded.Fetch(ctx, "observation", ids)
		if err != nil {
			t.Fatalf("%s: sharded Fetch: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded Fetch returned %v, single node %v", name, docIDs(got), docIDs(want))
		}
	}
}

func docIDs(docs []*model.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ID
	}
	return out
}
