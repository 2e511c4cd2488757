// Scenario implementations for the §5.2 evaluation:
//
//	S_A — the application does plain data operations; no middleware, no
//	      tactics (plaintext documents, plaintext indexes).
//	S_B — the data protection tactics are hard-coded into the application
//	      without the middleware (direct tactic calls, fixed pipeline).
//	S_C — the application uses DataBlinder to enforce the same tactics
//	      (schema validation, adaptive selection, SPI dispatch).
//
// All three run against the same cloud node through the same transport,
// so differences isolate tactic cost (S_B vs S_A) and middleware cost
// (S_C vs S_B) — the paper's ~44% and ~1.4% headline numbers.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/core"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/fhir"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/tactics/cell"
	tdet "datablinder/internal/tactics/det"
	tmitra "datablinder/internal/tactics/mitra"
	tpaillier "datablinder/internal/tactics/paillier"
	trnd "datablinder/internal/tactics/rnd"
	"datablinder/internal/transport"
)

// App is the uniform surface the workload driver and the repository
// benchmarks exercise.
type App interface {
	// Insert stores one observation document.
	Insert(ctx context.Context, doc *model.Document) error
	// SearchEq finds documents by field equality and fetches them.
	SearchEq(ctx context.Context, field string, value any) ([]*model.Document, error)
	// AverageWhere computes avg(value) over documents matching
	// whereField = whereValue (the paper's "aggregated search").
	AverageWhere(ctx context.Context, whereField string, whereValue any) (float64, error)
}

// delayConn simulates network round-trip latency per RPC.
type delayConn struct {
	transport.Conn
	delay time.Duration
}

func (c delayConn) Call(ctx context.Context, service, method string, args, reply any) error {
	timer := time.NewTimer(c.delay)
	select {
	case <-timer.C:
	case <-ctx.Done():
		timer.Stop()
		return ctx.Err()
	}
	return c.Conn.Call(ctx, service, method, args, reply)
}

// countingConn counts logical index-service operations (everything except
// the document service), reproducing the paper's "~350k secure index
// operations" stat. A transport batch counts as its number of sub-calls,
// not one — batching changes frames, not index operations.
type countingConn struct {
	transport.Conn
	indexOps *int64
}

func (c countingConn) Call(ctx context.Context, service, method string, args, reply any) error {
	switch {
	case service == transport.BatchService:
		// Document sub-calls merged into a batch stay uncounted, as they
		// are when sent alone. (Counting them made the total depend on how
		// often the coalescer happened to batch a doc write.)
		calls, _ := args.([]transport.BatchCall)
		for _, call := range calls {
			if call.Service != cloud.DocService {
				atomic.AddInt64(c.indexOps, 1)
			}
		}
	case service != cloud.DocService:
		atomic.AddInt64(c.indexOps, 1)
	}
	return c.Conn.Call(ctx, service, method, args, reply)
}

// detFields are the five DET-protected fields of the benchmark schema.
var detFields = []string{"status", "code", "effective", "issued", "value"}

// ---- S_A: plain application, no protection --------------------------------

// plainApp stores plaintext documents and maintains plaintext secondary
// indexes (the det index service doubles as a plain inverted index: the
// "ciphertext" key is the plaintext value).
type plainApp struct {
	conn       transport.Conn
	collection string
}

func newPlainApp(conn transport.Conn) *plainApp {
	return &plainApp{conn: conn, collection: "observation-plain"}
}

func (a *plainApp) Insert(ctx context.Context, doc *model.Document) error {
	blob, err := json.Marshal(doc.Fields)
	if err != nil {
		return err
	}
	if err := a.conn.Call(ctx, cloud.DocService, "put",
		cloud.DocPutArgs{Collection: a.collection, ID: doc.ID, Blob: blob, IfAbsent: true}, nil); err != nil {
		return err
	}
	for _, f := range append(append([]string(nil), detFields...), "subject") {
		v, ok := doc.Fields[f]
		if !ok {
			continue
		}
		if err := a.conn.Call(ctx, tdet.Service, "add", cell.Args{
			Schema: a.collection, Field: f,
			CT: []byte(model.ValueToString(v)), DocID: doc.ID,
		}, nil); err != nil {
			return err
		}
	}
	return nil
}

func (a *plainApp) lookup(ctx context.Context, field string, value any) ([]string, error) {
	var reply tdet.LookupReply
	if err := a.conn.Call(ctx, tdet.Service, "lookup", tdet.LookupArgs{
		Schema: a.collection, Field: field, CT: []byte(model.ValueToString(value)),
	}, &reply); err != nil {
		return nil, err
	}
	return reply.DocIDs, nil
}

func (a *plainApp) fetch(ctx context.Context, ids []string) ([]*model.Document, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	var reply cloud.DocGetManyReply
	if err := a.conn.Call(ctx, cloud.DocService, "getmany",
		cloud.DocGetManyArgs{Collection: a.collection, IDs: ids}, &reply); err != nil {
		return nil, err
	}
	docs := make([]*model.Document, 0, len(reply.Records))
	for _, rec := range reply.Records {
		var fields map[string]any
		if err := json.Unmarshal(rec.Blob, &fields); err != nil {
			return nil, err
		}
		docs = append(docs, &model.Document{ID: rec.ID, Fields: fields})
	}
	return docs, nil
}

func (a *plainApp) SearchEq(ctx context.Context, field string, value any) ([]*model.Document, error) {
	ids, err := a.lookup(ctx, field, value)
	if err != nil {
		return nil, err
	}
	return a.fetch(ctx, ids)
}

func (a *plainApp) AverageWhere(ctx context.Context, whereField string, whereValue any) (float64, error) {
	docs, err := a.SearchEq(ctx, whereField, whereValue)
	if err != nil {
		return 0, err
	}
	if len(docs) == 0 {
		return 0, nil
	}
	var sum float64
	n := 0
	for _, d := range docs {
		if v, ok := d.Fields["value"].(float64); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// ---- S_B: tactics hard-coded into the application -------------------------

// hardcodedApp wires the eight tactic instances of the §5.2 experiment
// (5×DET, Mitra, RND, Paillier) directly, with a fixed field→tactic
// pipeline and no middleware dispatch.
type hardcodedApp struct {
	conn       transport.Conn
	shards     *ring.Ring // conn, as the tactics route over it
	collection string
	aead       *primitives.AEAD

	det      *tdet.Tactic
	mitra    spi.Tactic
	rnd      *trnd.Tactic
	paillier *tpaillier.Tactic
}

func newHardcodedApp(ctx context.Context, conn transport.Conn, kp keys.Provider, local *kvstore.Store) (*hardcodedApp, error) {
	const collection = "observation-hardcoded"
	shards := ring.Of(conn)
	b := spi.Binding{Schema: collection, Keys: kp, Cloud: shards, Local: local}

	detT, err := tdet.New(b)
	if err != nil {
		return nil, err
	}
	mitraT, err := tmitra.New(b)
	if err != nil {
		return nil, err
	}
	rndT, err := trnd.New(b)
	if err != nil {
		return nil, err
	}
	paillierT, err := tpaillier.New(b)
	if err != nil {
		return nil, err
	}
	paillier := paillierT.(*tpaillier.Tactic)
	if err := paillier.Setup(ctx); err != nil {
		return nil, err
	}
	docKey, err := kp.Key(keys.Ref{Schema: collection, Field: "*", Tactic: "SecureEnc", Purpose: "doc"})
	if err != nil {
		return nil, err
	}
	aead, err := primitives.NewAEAD(docKey)
	if err != nil {
		return nil, err
	}
	return &hardcodedApp{
		conn:       conn,
		shards:     shards,
		collection: collection,
		aead:       aead,
		det:        detT.(*tdet.Tactic),
		mitra:      mitraT,
		rnd:        rndT.(*trnd.Tactic),
		paillier:   paillier,
	}, nil
}

func (a *hardcodedApp) Insert(ctx context.Context, doc *model.Document) error {
	pt, err := json.Marshal(doc.Fields)
	if err != nil {
		return err
	}
	blob, err := a.aead.Seal(pt, []byte(doc.ID))
	if err != nil {
		return err
	}
	if err := a.conn.Call(ctx, cloud.DocService, "put",
		cloud.DocPutArgs{Collection: a.collection, ID: doc.ID, Blob: blob, IfAbsent: true}, nil); err != nil {
		return err
	}
	// One tactic write per field, each its own round trip: the hard-coded
	// application has no engine to batch them.
	index := func(t spi.Tactic, f string) error {
		v, ok := doc.Fields[f]
		if !ok {
			return nil
		}
		return spi.Apply(ctx, a.shards, t, model.OpInsert, doc.ID, map[string]any{f: v})
	}
	for _, f := range detFields {
		if err := index(a.det, f); err != nil {
			return err
		}
	}
	if err := index(a.mitra, "subject"); err != nil {
		return err
	}
	if err := index(a.rnd, "performer"); err != nil {
		return err
	}
	return index(a.paillier, "value")
}

func (a *hardcodedApp) searchIDs(ctx context.Context, field string, value any) ([]string, error) {
	if field == "subject" {
		return a.mitra.(spi.EqSearcher).SearchEq(ctx, field, value)
	}
	return a.det.SearchEq(ctx, field, value)
}

func (a *hardcodedApp) SearchEq(ctx context.Context, field string, value any) ([]*model.Document, error) {
	ids, err := a.searchIDs(ctx, field, value)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, nil
	}
	var reply cloud.DocGetManyReply
	if err := a.conn.Call(ctx, cloud.DocService, "getmany",
		cloud.DocGetManyArgs{Collection: a.collection, IDs: ids}, &reply); err != nil {
		return nil, err
	}
	docs := make([]*model.Document, 0, len(reply.Records))
	for _, rec := range reply.Records {
		pt, err := a.aead.Open(rec.Blob, []byte(rec.ID))
		if err != nil {
			return nil, err
		}
		var fields map[string]any
		if err := json.Unmarshal(pt, &fields); err != nil {
			return nil, err
		}
		docs = append(docs, &model.Document{ID: rec.ID, Fields: fields})
	}
	return docs, nil
}

func (a *hardcodedApp) AverageWhere(ctx context.Context, whereField string, whereValue any) (float64, error) {
	ids, err := a.searchIDs(ctx, whereField, whereValue)
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, nil
	}
	return a.paillier.Aggregate(ctx, "value", model.AggAvg, ids)
}

// ---- S_C: DataBlinder middleware -------------------------------------------

// middlewareApp drives the full engine: schema validation, adaptive
// selection, SPI dispatch, policy enforcement.
type middlewareApp struct {
	engine *core.Engine
	schema string
}

func newMiddlewareApp(ctx context.Context, conn transport.Conn, kp keys.Provider, local *kvstore.Store) (*middlewareApp, error) {
	registry, err := tactics.Registry()
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(core.Config{Keys: kp, Cloud: conn, Local: local, Registry: registry})
	if err != nil {
		return nil, err
	}
	schema := fhir.BenchmarkSchema()
	if err := engine.RegisterSchema(ctx, schema); err != nil {
		return nil, err
	}
	return &middlewareApp{engine: engine, schema: schema.Name}, nil
}

func (a *middlewareApp) Insert(ctx context.Context, doc *model.Document) error {
	_, err := a.engine.Insert(ctx, a.schema, doc)
	return err
}

func (a *middlewareApp) SearchEq(ctx context.Context, field string, value any) ([]*model.Document, error) {
	return a.engine.Search(ctx, a.schema, core.Eq{Field: field, Value: value})
}

func (a *middlewareApp) AverageWhere(ctx context.Context, whereField string, whereValue any) (float64, error) {
	return a.engine.Aggregate(ctx, a.schema, "value", model.AggAvg,
		core.Eq{Field: whereField, Value: whereValue})
}

var (
	_ App = (*plainApp)(nil)
	_ App = (*hardcodedApp)(nil)
	_ App = (*middlewareApp)(nil)
)

// newApp constructs the scenario's app over a shared cloud connection.
func NewApp(ctx context.Context, scenario string, conn transport.Conn, kp keys.Provider, local *kvstore.Store) (App, error) {
	switch scenario {
	case "A":
		return newPlainApp(conn), nil
	case "B":
		return newHardcodedApp(ctx, conn, kp, local)
	case "C":
		return newMiddlewareApp(ctx, conn, kp, local)
	default:
		return nil, fmt.Errorf("bench: unknown scenario %q", scenario)
	}
}
