package datablinder_test

import (
	"context"
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"datablinder"
)

// TestExpvarReaderContract pins every key a reader of /debug/vars (what
// -pprof serves: expvar.Handler) takes from the four datablinder sections,
// among them the ones benchmark/cmd/dblayers turns into its wal.*,
// transport.* and coalesce.* rows. A renamed key would make such a reader
// see 0 without any error.
func TestExpvarReaderContract(t *testing.T) {
	dir := t.TempDir()
	client := openClient(t, datablinder.Options{
		InProcessCloud: true,
		LocalStatePath: filepath.Join(dir, "state"),
		CloudKVPath:    filepath.Join(dir, "index"),
	})
	ctx := context.Background()
	if err := client.RegisterSchema(ctx, vitalsSchema()); err != nil {
		t.Fatal(err)
	}
	col := client.Entities("vitals")
	if _, err := col.Insert(ctx, &datablinder.Document{ID: "v1", Fields: map[string]any{
		"patient": "alice", "kind": "glucose", "taken": int64(1), "reading": 5.5,
	}}); err != nil {
		t.Fatal(err)
	}
	if ids, err := col.SearchIDs(ctx, datablinder.Eq{Field: "patient", Value: "alice"}); err != nil || len(ids) != 1 {
		t.Fatalf("SearchIDs = %v, %v", ids, err)
	}

	rec := httptest.NewRecorder()
	expvar.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	section := func(name string, into any) {
		t.Helper()
		if err := json.Unmarshal(vars[name], into); err != nil {
			t.Fatalf("%s: %v (%s)", name, err, vars[name])
		}
	}
	has := func(name string, obj map[string]any, keys ...string) {
		t.Helper()
		for _, k := range keys {
			if _, ok := obj[k]; !ok {
				t.Errorf("%s has no %q: %v", name, k, obj)
			}
		}
	}

	var store map[string]any
	section("datablinder_store", &store)
	has("datablinder_store", store, "appends", "append_bytes", "fsyncs", "fsync_mean_us", "recovery_records")
	if n, _ := store["appends"].(float64); n == 0 {
		t.Errorf("datablinder_store counts no appends after a persisted insert: %v", store)
	}

	var wire struct {
		Methods []map[string]any
		Codecs  map[string]map[string]any
	}
	section("datablinder_wire", &wire)
	if len(wire.Methods) == 0 {
		t.Error("datablinder_wire lists no method after an insert and a search")
	}
	for _, m := range wire.Methods {
		has("datablinder_wire.methods[]", m, "method", "frames_out", "frames_in", "bytes_out", "bytes_in", "encode_ns", "decode_ns")
	}
	has("datablinder_wire.codecs.binary", wire.Codecs["binary"], "frames", "bytes")

	var coal map[string]any
	section("datablinder_coalesce", &coal)
	has("datablinder_coalesce", coal, "flushes", "flush_by_trigger", "sub_calls", "coalesced_sub_calls", "dedup_hits")
	if n, _ := coal["sub_calls"].(float64); n == 0 {
		t.Errorf("datablinder_coalesce counts no write sub-call after an insert: %v", coal)
	}

	var tactics map[string]any
	section("datablinder_tactics", &tactics)
	has("datablinder_tactics", tactics, "tactics", "docs", "migrations")
	if ts, _ := tactics["tactics"].(map[string]any); len(ts) == 0 {
		t.Errorf("datablinder_tactics has no tactic after an insert: %v", tactics)
	}
}
