package datablinder_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"datablinder"

	"datablinder/internal/cloud"
	"datablinder/internal/transport"
)

func vitalsSchema() *datablinder.Schema {
	return &datablinder.Schema{
		Name: "vitals",
		Fields: []datablinder.Field{
			datablinder.PlainField("note", datablinder.TypeString),
			datablinder.MustField("patient", datablinder.TypeString, "C2, op [I, EQ]"),
			datablinder.MustField("kind", datablinder.TypeString, "C3, op [I, EQ, BL]"),
			datablinder.MustField("taken", datablinder.TypeInt, "C5, op [I, EQ, RG], tactic [DET, OPE]"),
			datablinder.MustField("reading", datablinder.TypeFloat, "C4, op [I, EQ], agg [avg, sum], tactic [DET, Paillier]"),
		},
	}
}

func openClient(t *testing.T, opts datablinder.Options) *datablinder.Client {
	t.Helper()
	client, err := datablinder.Open(context.Background(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func TestOpenValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := datablinder.Open(ctx, datablinder.Options{}); err == nil {
		t.Fatal("Open accepted empty options")
	}
	if _, err := datablinder.Open(ctx, datablinder.Options{
		InProcessCloud: true, CloudAddrs: []string{"x:1"},
	}); err == nil {
		t.Fatal("Open accepted both cloud modes")
	}
}

func TestEndToEndPublicAPI(t *testing.T) {
	client := openClient(t, datablinder.Options{InProcessCloud: true})
	ctx := context.Background()
	if err := client.RegisterSchema(ctx, vitalsSchema()); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	if got := client.Schemas(); len(got) != 1 || got[0] != "vitals" {
		t.Fatalf("Schemas = %v", got)
	}

	col := client.Entities("vitals")
	seed := []struct {
		id      string
		patient string
		kind    string
		taken   int64
		reading float64
	}{
		{"v1", "alice", "heart-rate", 100, 62},
		{"v2", "alice", "heart-rate", 200, 70},
		{"v3", "alice", "glucose", 300, 5.5},
		{"v4", "bob", "heart-rate", 400, 88},
	}
	for _, s := range seed {
		if _, err := col.Insert(ctx, &datablinder.Document{ID: s.id, Fields: map[string]any{
			"patient": s.patient, "kind": s.kind, "taken": s.taken, "reading": s.reading,
		}}); err != nil {
			t.Fatalf("Insert(%s): %v", s.id, err)
		}
	}

	if n, err := col.Count(ctx); err != nil || n != 4 {
		t.Fatalf("Count = %d, %v", n, err)
	}

	doc, err := col.Get(ctx, "v1")
	if err != nil || doc.Fields["patient"] != "alice" {
		t.Fatalf("Get = %+v, %v", doc, err)
	}

	ids, err := col.SearchIDs(ctx, datablinder.And{Preds: []datablinder.Predicate{
		datablinder.Eq{Field: "patient", Value: "alice"},
		datablinder.Eq{Field: "kind", Value: "heart-rate"},
	}})
	if err != nil {
		t.Fatalf("SearchIDs: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"v1", "v2"}) {
		t.Fatalf("conjunction = %v", ids)
	}

	ids, err = col.SearchIDs(ctx, datablinder.Between("taken", 150, 350))
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"v2", "v3"}) {
		t.Fatalf("range = %v", ids)
	}

	avg, err := col.Aggregate(ctx, "reading", datablinder.AggAvg,
		datablinder.Eq{Field: "kind", Value: "heart-rate"})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	want := (62.0 + 70 + 88) / 3
	if d := avg - want; d > 1e-6 || d < -1e-6 {
		t.Fatalf("avg = %g, want %g", avg, want)
	}

	// Update + delete through the facade.
	doc.Fields["reading"] = 65.0
	if err := col.Update(ctx, doc); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := col.Delete(ctx, "v4"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := col.Get(ctx, "v4"); !errors.Is(err, datablinder.ErrDocumentMissing) {
		t.Fatalf("Get deleted = %v", err)
	}

	// FieldPlan surfaces selection + weakest-link class.
	ops, aggs, effective, err := client.FieldPlan("vitals", "reading")
	if err != nil {
		t.Fatalf("FieldPlan: %v", err)
	}
	if ops[datablinder.Op("EQ")] != "DET" || aggs[datablinder.AggAvg] != "Paillier" {
		t.Fatalf("plan = %v / %v", ops, aggs)
	}
	if effective != datablinder.Class4 {
		t.Fatalf("effective = %v", effective)
	}

	// The tactic catalog exposes all nine schemes.
	if got := len(client.TacticCatalog()); got != 9 {
		t.Fatalf("TacticCatalog = %d entries", got)
	}
}

// TestOpenRejectsStateFileThatIsNotADirectory: gateway state is a WAL
// directory and nothing else. A regular file at LocalStatePath fails Open
// with the path in the error and is left exactly as it was.
func TestOpenRejectsStateFileThatIsNotADirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gateway.aof")
	content := []byte("SET aw== dg==\n")
	if err := os.WriteFile(path, content, 0o600); err != nil {
		t.Fatal(err)
	}
	client, err := datablinder.Open(context.Background(), datablinder.Options{InProcessCloud: true, LocalStatePath: path})
	if err == nil {
		client.Close()
		t.Fatal("Open succeeded with a regular file as its state directory")
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the path %s", err, path)
	}
	if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, content) {
		t.Fatalf("state file changed by the failed Open: %q, %v", got, rerr)
	}
}

func TestPersistentGatewayRestart(t *testing.T) {
	// Full durability path through the public API: master key file,
	// gateway state log, cloud persistence — close everything, reopen, verify.
	dir := t.TempDir()
	opts := datablinder.Options{
		InProcessCloud: true,
		MasterKeyPath:  filepath.Join(dir, "master.key"),
		CreateKey:      true,
		LocalStatePath: filepath.Join(dir, "gateway.aof"),
		CloudKVPath:    filepath.Join(dir, "cloud.aof"),
	}
	ctx := context.Background()

	client, err := datablinder.Open(ctx, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := client.RegisterSchema(ctx, vitalsSchema()); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	col := client.Entities("vitals")
	if _, err := col.Insert(ctx, &datablinder.Document{ID: "v1", Fields: map[string]any{
		"patient": "alice", "kind": "glucose", "taken": int64(1), "reading": 5.0,
	}}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	client2, err := datablinder.Open(ctx, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer client2.Close()
	if got := client2.Schemas(); len(got) != 1 {
		t.Fatalf("schemas not restored: %v", got)
	}
	col2 := client2.Entities("vitals")
	doc, err := col2.Get(ctx, "v1")
	if err != nil || doc.Fields["patient"] != "alice" {
		t.Fatalf("Get after restart = %+v, %v", doc, err)
	}
	ids, err := col2.SearchIDs(ctx, datablinder.Eq{Field: "patient", Value: "alice"})
	if err != nil || !reflect.DeepEqual(ids, []string{"v1"}) {
		t.Fatalf("search after restart = %v, %v", ids, err)
	}
	// New inserts continue the tactic state chains.
	if _, err := col2.Insert(ctx, &datablinder.Document{ID: "v2", Fields: map[string]any{
		"patient": "alice", "kind": "glucose", "taken": int64(2), "reading": 6.0,
	}}); err != nil {
		t.Fatalf("Insert after restart: %v", err)
	}
	ids, _ = col2.SearchIDs(ctx, datablinder.Eq{Field: "patient", Value: "alice"})
	if !reflect.DeepEqual(ids, []string{"v1", "v2"}) {
		t.Fatalf("combined search = %v", ids)
	}
}

func TestRemoteCloudMode(t *testing.T) {
	// Full stack over a real TCP cloudserver.
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := transport.NewServer(node.Mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := openClient(t, datablinder.Options{CloudAddrs: []string{addr}})
	ctx := context.Background()
	if err := client.RegisterSchema(ctx, vitalsSchema()); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	col := client.Entities("vitals")
	if _, err := col.Insert(ctx, &datablinder.Document{ID: "r1", Fields: map[string]any{
		"patient": "remote", "kind": "bmi", "taken": int64(9), "reading": 22.5,
	}}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	ids, err := col.SearchIDs(ctx, datablinder.Eq{Field: "patient", Value: "remote"})
	if err != nil || !reflect.DeepEqual(ids, []string{"r1"}) {
		t.Fatalf("remote search = %v, %v", ids, err)
	}
	// The cloud node never stores the plaintext patient name.
	keysList, _ := node.KV.Keys(nil)
	for _, k := range keysList {
		if containsStr(k, "remote") {
			t.Fatalf("plaintext leaked into cloud kv key %q", k)
		}
		v, _, _ := node.KV.Get(k)
		if containsStr(v, "remote") {
			t.Fatal("plaintext leaked into cloud kv value")
		}
	}
	blob, _ := node.Docs.Get("vitals", "r1")
	if containsStr(blob, "remote") {
		t.Fatal("plaintext leaked into document blob")
	}
}

func containsStr(b []byte, sub string) bool {
	for i := 0; i+len(sub) <= len(b); i++ {
		if string(b[i:i+len(sub)]) == sub {
			return true
		}
	}
	return false
}

func TestBoolFieldsEndToEnd(t *testing.T) {
	client := openClient(t, datablinder.Options{InProcessCloud: true})
	ctx := context.Background()
	schema := &datablinder.Schema{
		Name: "consent",
		Fields: []datablinder.Field{
			datablinder.MustField("patient", datablinder.TypeString, "C2, op [I, EQ]"),
			datablinder.MustField("granted", datablinder.TypeBool, "C4, op [I, EQ], tactic [DET]"),
		},
	}
	if err := client.RegisterSchema(ctx, schema); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	col := client.Entities("consent")
	for i, granted := range []bool{true, false, true} {
		if _, err := col.Insert(ctx, &datablinder.Document{
			ID:     string(rune('a' + i)),
			Fields: map[string]any{"patient": "p", "granted": granted},
		}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	ids, err := col.SearchIDs(ctx, datablinder.Eq{Field: "granted", Value: true})
	if err != nil {
		t.Fatalf("SearchIDs: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"a", "c"}) {
		t.Fatalf("bool search = %v", ids)
	}
	doc, err := col.Get(ctx, "b")
	if err != nil || doc.Fields["granted"] != false {
		t.Fatalf("bool round trip = %v, %v", doc.Fields["granted"], err)
	}
	// Non-bool values for a bool field are rejected.
	if _, err := col.Insert(ctx, &datablinder.Document{
		ID: "x", Fields: map[string]any{"granted": "yes"},
	}); err == nil {
		t.Fatal("string accepted for bool field")
	}
}

func TestCompactThroughFacade(t *testing.T) {
	client := openClient(t, datablinder.Options{InProcessCloud: true})
	ctx := context.Background()
	if err := client.RegisterSchema(ctx, vitalsSchema()); err != nil {
		t.Fatal(err)
	}
	col := client.Entities("vitals")
	for i := 0; i < 25; i++ {
		if _, err := col.Insert(ctx, &datablinder.Document{
			ID:     string(rune('a'+i%26)) + string(rune('0'+i/26)),
			Fields: map[string]any{"kind": "heart-rate"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := col.SearchIDs(ctx, datablinder.Eq{Field: "kind", Value: "heart-rate"})
	if err != nil {
		t.Fatal(err)
	}
	// kind's boolean tactic (BIEX-2Lev) supports compaction.
	if err := col.Compact(ctx, "kind", "heart-rate"); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, err := col.SearchIDs(ctx, datablinder.Eq{Field: "kind", Value: "heart-rate"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("Compact changed results: %v -> %v", before, after)
	}
	// Fields without a compacting tactic are a no-op, not an error.
	if err := col.Compact(ctx, "patient", "x"); err != nil {
		t.Fatalf("Compact(non-compactable field): %v", err)
	}
}

func TestNewFieldErrors(t *testing.T) {
	if _, err := datablinder.NewField("f", datablinder.TypeString, "garbage"); err == nil {
		t.Fatal("NewField accepted bad annotation")
	}
	f, err := datablinder.NewField("f", datablinder.TypeString, "C3, op [I, EQ]")
	if err != nil || !f.Sensitive || f.Annotation.Class != datablinder.Class3 {
		t.Fatalf("NewField = %+v, %v", f, err)
	}
	p := datablinder.PlainField("p", datablinder.TypeInt)
	if p.Sensitive {
		t.Fatal("PlainField marked sensitive")
	}
}
