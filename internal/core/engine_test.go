package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"datablinder/internal/cloud"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// observationSchema is the paper's §5.1 FHIR Observation schema with the
// exact annotations and tactic selections from the example.
func observationSchema() *model.Schema {
	mustAnn := func(s string) model.Annotation {
		a, err := model.ParseAnnotation(s)
		if err != nil {
			panic(err)
		}
		return a
	}
	return &model.Schema{
		Name: "observation",
		Fields: []model.Field{
			{Name: "identifier", Type: model.TypeString},
			{Name: "status", Type: model.TypeString, Sensitive: true,
				Annotation: mustAnn("C3, op [I, EQ, BL]")},
			{Name: "code", Type: model.TypeString, Sensitive: true,
				Annotation: mustAnn("C3, op [I, EQ, BL]")},
			{Name: "subject", Type: model.TypeString, Sensitive: true,
				Annotation: mustAnn("C2, op [I, EQ]")},
			{Name: "effective", Type: model.TypeInt, Sensitive: true,
				Annotation: mustAnn("C5, op [I, EQ, BL, RG], tactic [DET, OPE, BIEX-2Lev]")},
			{Name: "issued", Type: model.TypeInt, Sensitive: true,
				Annotation: mustAnn("C5, op [I, EQ, BL, RG], tactic [DET, OPE, BIEX-2Lev]")},
			{Name: "performer", Type: model.TypeString, Sensitive: true,
				Annotation: mustAnn("C1, op [I]")},
			{Name: "value", Type: model.TypeFloat, Sensitive: true,
				Annotation: mustAnn("C3, op [I, EQ, BL], agg [avg, sum]")},
		},
	}
}

type testEnv struct {
	engine *Engine
	node   *cloud.Node
	local  *kvstore.Store
	keys   *keys.Store
}

func newEnv(t testing.TB) *testEnv {
	t.Helper()
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		t.Fatalf("cloud.NewNode: %v", err)
	}
	t.Cleanup(func() { node.Close() })

	ks, err := keys.NewRandomStore()
	if err != nil {
		t.Fatalf("keys: %v", err)
	}
	reg, err := tactics.Registry()
	if err != nil {
		t.Fatalf("tactics.Registry: %v", err)
	}
	local := kvstore.New()
	engine, err := NewEngine(Config{
		Keys:     ks,
		Cloud:    transport.NewLoopback(node.Mux),
		Local:    local,
		Registry: reg,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return &testEnv{engine: engine, node: node, local: local, keys: ks}
}

func registeredEnv(t testing.TB) *testEnv {
	t.Helper()
	env := newEnv(t)
	if err := env.engine.RegisterSchema(context.Background(), observationSchema()); err != nil {
		t.Fatalf("RegisterSchema: %v", err)
	}
	return env
}

func obs(id, status, code, subject string, effective int64, performer string, value float64) *model.Document {
	return &model.Document{ID: id, Fields: map[string]any{
		"status": status, "code": code, "subject": subject,
		"effective": effective, "performer": performer, "value": value,
	}}
}

// seedDocs are the five documents seed inserts.
func seedDocs() []*model.Document {
	return []*model.Document{
		obs("f001", "final", "glucose", "john-doe", 1359966610, "john-smith", 6.3),
		obs("f002", "final", "glucose", "jane-roe", 1360966610, "mary-major", 5.1),
		obs("f003", "draft", "glucose", "john-doe", 1361966610, "john-smith", 7.9),
		obs("f004", "final", "insulin", "jane-roe", 1362966610, "mary-major", 11.0),
		obs("f005", "amended", "heart-rate", "john-doe", 1363966610, "john-smith", 72.0),
	}
}

func seed(t testing.TB, env *testEnv) {
	t.Helper()
	for _, d := range seedDocs() {
		if _, err := env.engine.Insert(context.Background(), "observation", d); err != nil {
			t.Fatalf("Insert(%s): %v", d.ID, err)
		}
	}
}

func TestRegisterSchemaSelection(t *testing.T) {
	env := registeredEnv(t)
	tests := []struct {
		field string
		op    model.Op
		want  string
	}{
		{"status", model.OpBoolean, "BIEX-2Lev"},
		{"code", model.OpBoolean, "BIEX-2Lev"},
		{"subject", model.OpEquality, "Mitra"},
		{"effective", model.OpEquality, "DET"},
		{"effective", model.OpRange, "OPE"},
		{"performer", model.OpInsert, "RND"},
		{"value", model.OpBoolean, "BIEX-2Lev"},
	}
	for _, tt := range tests {
		plan, err := env.engine.Plan("observation", tt.field)
		if err != nil {
			t.Fatalf("Plan(%s): %v", tt.field, err)
		}
		if got := plan.ByOp[tt.op]; got != tt.want {
			t.Errorf("%s/%s -> %q, want %q", tt.field, string(tt.op), got, tt.want)
		}
	}
	// value's aggregate plan must land on Paillier.
	plan, _ := env.engine.Plan("observation", "value")
	if plan.ByAgg[model.AggAvg] != "Paillier" {
		t.Errorf("value avg -> %q", plan.ByAgg[model.AggAvg])
	}
}

func TestRegisterSchemaErrors(t *testing.T) {
	env := registeredEnv(t)
	if err := env.engine.RegisterSchema(context.Background(), observationSchema()); !errors.Is(err, ErrSchemaExists) {
		t.Fatalf("duplicate registration = %v", err)
	}
	bad := &model.Schema{Name: "bad"}
	if err := env.engine.RegisterSchema(context.Background(), bad); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	env := registeredEnv(t)
	doc := obs("f001", "final", "glucose", "john-doe", 1359966610, "john-smith", 6.3)
	id, err := env.engine.Insert(context.Background(), "observation", doc)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != "f001" {
		t.Fatalf("Insert returned id %q", id)
	}
	got, err := env.engine.Get(context.Background(), "observation", "f001")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Fields["status"] != "final" || got.Fields["value"] != 6.3 {
		t.Fatalf("Get fields = %v", got.Fields)
	}
	if got.Fields["effective"] != int64(1359966610) {
		t.Fatalf("int round trip = %v (%T)", got.Fields["effective"], got.Fields["effective"])
	}
}

func TestLargeIntRoundTrip(t *testing.T) {
	env := registeredEnv(t)
	// 2^53+1 is the first integer float64 cannot represent; a decoder that
	// routes ints through float64 silently returns 2^53 here.
	const huge = int64(1)<<53 + 1
	doc := obs("big", "final", "glucose", "john-doe", huge, "john-smith", 6.3)
	if _, err := env.engine.Insert(context.Background(), "observation", doc); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := env.engine.Get(context.Background(), "observation", "big")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.Fields["effective"] != huge {
		t.Fatalf("effective = %v (%T), want %d", got.Fields["effective"], got.Fields["effective"], huge)
	}
	// Float fields keep the plain-decoder representation.
	if got.Fields["value"] != 6.3 {
		t.Fatalf("value = %v (%T), want 6.3", got.Fields["value"], got.Fields["value"])
	}
}

func TestInsertGeneratesID(t *testing.T) {
	env := registeredEnv(t)
	doc := &model.Document{Fields: map[string]any{"status": "final"}}
	id, err := env.engine.Insert(context.Background(), "observation", doc)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if len(id) != 32 {
		t.Fatalf("generated id = %q", id)
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	_, err := env.engine.Insert(context.Background(), "observation",
		obs("f001", "final", "glucose", "x", 1, "y", 2))
	if !errors.Is(err, ErrDocumentExists) {
		t.Fatalf("duplicate insert = %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	env := registeredEnv(t)
	if _, err := env.engine.Get(context.Background(), "observation", "ghost"); !errors.Is(err, ErrDocumentMissing) {
		t.Fatalf("Get(missing) = %v", err)
	}
}

func TestUnknownSchema(t *testing.T) {
	env := newEnv(t)
	if _, err := env.engine.Insert(context.Background(), "nope", &model.Document{ID: "x"}); !errors.Is(err, ErrSchemaUnknown) {
		t.Fatalf("unknown schema = %v", err)
	}
}

func TestEqualitySearchAllTactics(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()

	// subject -> Mitra.
	ids, err := env.engine.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: "john-doe"})
	if err != nil {
		t.Fatalf("Mitra search: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f001", "f003", "f005"}) {
		t.Fatalf("subject search = %v", ids)
	}

	// effective -> DET (pinned).
	ids, err = env.engine.SearchIDs(ctx, "observation", Eq{Field: "effective", Value: 1360966610})
	if err != nil {
		t.Fatalf("DET search: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f002"}) {
		t.Fatalf("effective search = %v", ids)
	}

	// status -> BIEX single keyword.
	ids, err = env.engine.SearchIDs(ctx, "observation", Eq{Field: "status", Value: "final"})
	if err != nil {
		t.Fatalf("BIEX search: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f001", "f002", "f004"}) {
		t.Fatalf("status search = %v", ids)
	}
}

func TestBooleanSearch(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()

	// final AND glucose -> f001, f002 (cross-field conjunction via BIEX).
	ids, err := env.engine.SearchIDs(ctx, "observation", And{Preds: []Predicate{
		Eq{Field: "status", Value: "final"},
		Eq{Field: "code", Value: "glucose"},
	}})
	if err != nil {
		t.Fatalf("conjunction: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f001", "f002"}) {
		t.Fatalf("conjunction = %v", ids)
	}

	// draft OR insulin -> f003, f004.
	ids, err = env.engine.SearchIDs(ctx, "observation", Or{Preds: []Predicate{
		Eq{Field: "status", Value: "draft"},
		Eq{Field: "code", Value: "insulin"},
	}})
	if err != nil {
		t.Fatalf("disjunction: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f003", "f004"}) {
		t.Fatalf("disjunction = %v", ids)
	}

	// final AND NOT glucose -> f004.
	ids, err = env.engine.SearchIDs(ctx, "observation", And{Preds: []Predicate{
		Eq{Field: "status", Value: "final"},
		Not{Pred: Eq{Field: "code", Value: "glucose"}},
	}})
	if err != nil {
		t.Fatalf("negation: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f004"}) {
		t.Fatalf("negation = %v", ids)
	}
}

func TestRangeSearch(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()

	ids, err := env.engine.SearchIDs(ctx, "observation",
		Between("effective", 1360000000, 1362000000))
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f002", "f003"}) {
		t.Fatalf("range = %v", ids)
	}

	// Open-ended range.
	ids, err = env.engine.SearchIDs(ctx, "observation", Gte("effective", 1362966610))
	if err != nil {
		t.Fatalf("gte: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f004", "f005"}) {
		t.Fatalf("gte = %v", ids)
	}
}

func TestMixedQuery(t *testing.T) {
	// A boolean+range tree cannot compile to pure DNF; the planner falls
	// back to gateway-side set resolution.
	env := registeredEnv(t)
	seed(t, env)
	ids, err := env.engine.SearchIDs(context.Background(), "observation", And{Preds: []Predicate{
		Eq{Field: "status", Value: "final"},
		Between("effective", 1360000000, 1363000000),
	}})
	if err != nil {
		t.Fatalf("mixed query: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f002", "f004"}) {
		t.Fatalf("mixed = %v", ids)
	}
}

func TestSearchReturnsDocuments(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	docs, err := env.engine.Search(context.Background(), "observation",
		Eq{Field: "code", Value: "insulin"})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(docs) != 1 || docs[0].ID != "f004" || docs[0].Fields["value"] != 11.0 {
		t.Fatalf("Search docs = %+v", docs)
	}
}

func TestAggregates(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()

	// Average glucose value across final observations (Paillier, cloud).
	avg, err := env.engine.Aggregate(ctx, "observation", "value", model.AggAvg,
		Eq{Field: "code", Value: "glucose"})
	if err != nil {
		t.Fatalf("avg: %v", err)
	}
	want := (6.3 + 5.1 + 7.9) / 3
	if diff := avg - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("avg = %g, want %g", avg, want)
	}

	sum, err := env.engine.Aggregate(ctx, "observation", "value", model.AggSum, nil)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if diff := sum - 102.3; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum = %g", sum)
	}

	count, err := env.engine.Aggregate(ctx, "observation", "value", model.AggCount,
		Eq{Field: "status", Value: "final"})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if count != 3 {
		t.Fatalf("count = %g", count)
	}

	maxV, err := env.engine.Aggregate(ctx, "observation", "value", model.AggMax, nil)
	if err != nil {
		t.Fatalf("max: %v", err)
	}
	if maxV != 72.0 {
		t.Fatalf("max = %g", maxV)
	}
	minV, err := env.engine.Aggregate(ctx, "observation", "value", model.AggMin, nil)
	if err != nil {
		t.Fatalf("min: %v", err)
	}
	if minV != 5.1 {
		t.Fatalf("min = %g", minV)
	}
}

func TestUpdateReindexes(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()

	// f003 transitions draft -> final and changes subject.
	doc := obs("f003", "final", "glucose", "jane-roe", 1361966610, "john-smith", 8.2)
	if err := env.engine.Update(ctx, "observation", doc); err != nil {
		t.Fatalf("Update: %v", err)
	}

	ids, err := env.engine.SearchIDs(ctx, "observation", Eq{Field: "status", Value: "draft"})
	if err != nil {
		t.Fatalf("search draft: %v", err)
	}
	if len(ids) != 0 {
		t.Fatalf("stale boolean index: %v", ids)
	}
	ids, _ = env.engine.SearchIDs(ctx, "observation", Eq{Field: "status", Value: "final"})
	if !reflect.DeepEqual(ids, []string{"f001", "f002", "f003", "f004"}) {
		t.Fatalf("final after update = %v", ids)
	}
	ids, _ = env.engine.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: "john-doe"})
	if !reflect.DeepEqual(ids, []string{"f001", "f005"}) {
		t.Fatalf("Mitra after update = %v", ids)
	}
	ids, _ = env.engine.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: "jane-roe"})
	if !reflect.DeepEqual(ids, []string{"f002", "f003", "f004"}) {
		t.Fatalf("Mitra new subject = %v", ids)
	}
	// The stored document reflects the update.
	got, _ := env.engine.Get(ctx, "observation", "f003")
	if got.Fields["value"] != 8.2 {
		t.Fatalf("updated value = %v", got.Fields["value"])
	}
	// Aggregates see the new value.
	sum, err := env.engine.Aggregate(ctx, "observation", "value", model.AggSum,
		Eq{Field: "subject", Value: "jane-roe"})
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if diff := sum - (5.1 + 8.2 + 11.0); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sum after update = %g", sum)
	}
}

func TestDeleteRemovesEverywhere(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()

	if err := env.engine.Delete(ctx, "observation", "f001"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := env.engine.Get(ctx, "observation", "f001"); !errors.Is(err, ErrDocumentMissing) {
		t.Fatalf("Get after delete = %v", err)
	}
	checks := []Predicate{
		Eq{Field: "status", Value: "final"},
		Eq{Field: "subject", Value: "john-doe"},
		Eq{Field: "effective", Value: 1359966610},
		Between("effective", 1359000000, 1360000000),
	}
	for i, p := range checks {
		ids, err := env.engine.SearchIDs(ctx, "observation", p)
		if err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		for _, id := range ids {
			if id == "f001" {
				t.Fatalf("check %d still finds deleted doc: %v", i, ids)
			}
		}
	}
	if err := env.engine.Delete(ctx, "observation", "f001"); !errors.Is(err, ErrDocumentMissing) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestNilPredicateReturnsAll(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ids, err := env.engine.SearchIDs(context.Background(), "observation", nil)
	if err != nil {
		t.Fatalf("SearchIDs(nil): %v", err)
	}
	if len(ids) != 5 {
		t.Fatalf("all ids = %v", ids)
	}
}

func TestUnsupportedQueries(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()
	// performer is insert-only (C1, op [I]).
	if _, err := env.engine.SearchIDs(ctx, "observation", Eq{Field: "performer", Value: "x"}); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("insert-only field search = %v", err)
	}
	// range on a non-range field.
	if _, err := env.engine.SearchIDs(ctx, "observation", Between("value", 1, 2)); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("range on non-range field = %v", err)
	}
	// unknown field.
	if _, err := env.engine.SearchIDs(ctx, "observation", Eq{Field: "nope", Value: 1}); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("unknown field = %v", err)
	}
	// aggregate without a plan.
	if _, err := env.engine.Aggregate(ctx, "observation", "status", model.AggSum, nil); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("sum on string field = %v", err)
	}
}

func TestGatewayRestartKeepsWorking(t *testing.T) {
	// A new engine over the same local store, key provider, and cloud node
	// (LoadSchemas) must continue searching and inserting seamlessly.
	env := registeredEnv(t)
	seed(t, env)
	ctx := context.Background()

	reg, err := tactics.Registry()
	if err != nil {
		t.Fatal(err)
	}
	engine2, err := NewEngine(Config{
		Keys:     env.keys,
		Cloud:    transport.NewLoopback(env.node.Mux),
		Local:    env.local,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := engine2.LoadSchemas(ctx); err != nil {
		t.Fatalf("LoadSchemas: %v", err)
	}
	if got := engine2.Schemas(); len(got) != 1 || got[0] != "observation" {
		t.Fatalf("Schemas after restart = %v", got)
	}

	ids, err := engine2.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: "john-doe"})
	if err != nil {
		t.Fatalf("search after restart: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"f001", "f003", "f005"}) {
		t.Fatalf("restart search = %v", ids)
	}

	if _, err := engine2.Insert(ctx, "observation",
		obs("f006", "final", "glucose", "john-doe", 1364966610, "js", 6.6)); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
	ids, _ = engine2.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: "john-doe"})
	if !reflect.DeepEqual(ids, []string{"f001", "f003", "f005", "f006"}) {
		t.Fatalf("search after restart insert = %v", ids)
	}
}

func TestTamperedCiphertextDetected(t *testing.T) {
	env := registeredEnv(t)
	seed(t, env)
	// Corrupt the stored blob directly in the (untrusted) docstore.
	blob, err := env.node.Docs.Get("observation", "f001")
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 1
	if err := env.node.Docs.Put("observation", "f001", blob); err != nil {
		t.Fatal(err)
	}
	if _, err := env.engine.Get(context.Background(), "observation", "f001"); err == nil {
		t.Fatal("tampered document accepted")
	}
}

func TestEffectiveClassReporting(t *testing.T) {
	env := registeredEnv(t)
	c, err := env.engine.EffectiveClass("observation", "subject")
	if err != nil || c != model.Class2 {
		t.Fatalf("subject class = %v, %v", c, err)
	}
	c, err = env.engine.EffectiveClass("observation", "effective")
	if err != nil || c != model.Class5 {
		t.Fatalf("effective class = %v, %v", c, err)
	}
	c, err = env.engine.EffectiveClass("observation", "performer")
	if err != nil || c != model.Class1 {
		t.Fatalf("performer class = %v, %v", c, err)
	}
}

func TestOverTCP(t *testing.T) {
	// The same flows must work across a real TCP connection.
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
	client, err := transport.Dial(addr, transport.DialOptions{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ks, _ := keys.NewRandomStore()
	reg, _ := tactics.Registry()
	engine, err := NewEngine(Config{Keys: ks, Cloud: client, Local: kvstore.New(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := engine.RegisterSchema(ctx, observationSchema()); err != nil {
		t.Fatalf("RegisterSchema over TCP: %v", err)
	}
	if _, err := engine.Insert(ctx, "observation",
		obs("t1", "final", "glucose", "tcp-patient", 100, "tcp-doc", 4.2)); err != nil {
		t.Fatalf("Insert over TCP: %v", err)
	}
	ids, err := engine.SearchIDs(ctx, "observation", Eq{Field: "subject", Value: "tcp-patient"})
	if err != nil {
		t.Fatalf("Search over TCP: %v", err)
	}
	if !reflect.DeepEqual(ids, []string{"t1"}) {
		t.Fatalf("TCP search = %v", ids)
	}
	avg, err := engine.Aggregate(ctx, "observation", "value", model.AggAvg, nil)
	if err != nil {
		t.Fatalf("Aggregate over TCP: %v", err)
	}
	if diff := avg - 4.2; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("TCP avg = %g", avg)
	}
}

func TestSearchEqualsPlaintextReference(t *testing.T) {
	// Randomized cross-check: every supported query type agrees with a
	// plaintext evaluation of the same corpus.
	env := registeredEnv(t)
	ctx := context.Background()
	statuses := []string{"final", "draft", "amended"}
	codes := []string{"glucose", "insulin", "heart-rate", "bmi"}
	subjects := []string{"p1", "p2", "p3"}
	var corpus []*model.Document
	for i := 0; i < 40; i++ {
		d := obs(fmt.Sprintf("r%03d", i),
			statuses[i%len(statuses)],
			codes[(i/2)%len(codes)],
			subjects[(i/3)%len(subjects)],
			int64(1000000+i*1000),
			"performer",
			float64(i)+0.5)
		corpus = append(corpus, d)
		if _, err := env.engine.Insert(ctx, "observation", d); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	evalRef := func(pred func(*model.Document) bool) []string {
		var out []string
		for _, d := range corpus {
			if pred(d) {
				out = append(out, d.ID)
			}
		}
		return out
	}

	queries := []struct {
		name string
		q    Predicate
		ref  func(*model.Document) bool
	}{
		{"eq status", Eq{Field: "status", Value: "draft"},
			func(d *model.Document) bool { return d.Fields["status"] == "draft" }},
		{"eq subject", Eq{Field: "subject", Value: "p2"},
			func(d *model.Document) bool { return d.Fields["subject"] == "p2" }},
		{"conj", And{Preds: []Predicate{Eq{Field: "status", Value: "final"}, Eq{Field: "code", Value: "glucose"}}},
			func(d *model.Document) bool {
				return d.Fields["status"] == "final" && d.Fields["code"] == "glucose"
			}},
		{"range", Between("effective", 1005000, 1020000),
			func(d *model.Document) bool {
				v := d.Fields["effective"].(int64)
				return v >= 1005000 && v <= 1020000
			}},
		{"mixed", And{Preds: []Predicate{Eq{Field: "code", Value: "insulin"}, Gte("effective", 1010000)}},
			func(d *model.Document) bool {
				return d.Fields["code"] == "insulin" && d.Fields["effective"].(int64) >= 1010000
			}},
	}
	for _, tt := range queries {
		t.Run(tt.name, func(t *testing.T) {
			got, err := env.engine.SearchIDs(ctx, "observation", tt.q)
			if err != nil {
				t.Fatalf("SearchIDs: %v", err)
			}
			want := evalRef(tt.ref)
			if want == nil {
				want = []string{}
			}
			if got == nil {
				got = []string{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %v, want %v", got, want)
			}
		})
	}
}
