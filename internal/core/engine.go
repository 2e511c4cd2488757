// Package core implements DataBlinder's middleware-core subsystem (paper
// Fig. 4): abstract execution of the persistence logic (CRUD + search +
// aggregates), the data protection metadata subsystem (schema persistence
// and validation), and adaptive tactic selection at runtime.
//
// The engine runs in the trusted zone. It holds the only decryption keys;
// the cloud side only ever receives whole-document AEAD ciphertexts and
// tactic-specific tokens.
package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/coalesce"
	"datablinder/internal/conc"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/planner"
	"datablinder/internal/spi"
	"datablinder/internal/store/docstore"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
)

// Errors returned by the engine.
var (
	ErrSchemaUnknown    = errors.New("core: schema not registered")
	ErrSchemaExists     = errors.New("core: schema already registered")
	ErrUnsupportedQuery = errors.New("core: no tactic plan supports this query")
	ErrDocumentExists   = errors.New("core: document already exists")
	ErrDocumentMissing  = errors.New("core: document not found")
)

// Config assembles an engine.
type Config struct {
	// Keys provides all key material (the Keys interface of Fig. 3).
	Keys keys.Provider
	// Cloud reaches the untrusted zone.
	Cloud transport.Conn
	// Local is the gateway-side store for tactic state and schema
	// metadata.
	Local *kvstore.Store
	// Registry is the tactic catalog; defaults must be supplied by the
	// caller (use tactics.Registry()).
	Registry *spi.Registry
	// Coalesce configures the per-shard group commit wrapped around every
	// cloud connection (see internal/coalesce). The zero value enables it;
	// Coalesce.Disabled routes every RPC individually, for a caller that
	// wraps its shard conns in its own coalescer chain
	// (benchmark/cmd/dblayers does).
	Coalesce coalesce.Options
	// Planner enables cost-based tactic selection: new plans pick the
	// cheapest tactic satisfying the leakage budget (live measurements
	// first, descriptor cost priors before any exist) instead of the
	// classic highest-tolerated-leakage rule. Annotation pins remain hard
	// overrides either way.
	Planner bool
	// MigrateThrottle pauses the online re-index between scan batches —
	// a live-traffic rate limit, and the crash-injection tests' window
	// for killing a migration mid-flight.
	MigrateThrottle time.Duration
}

// writeWorkers is how many write-path goroutines an engine keeps parked
// between requests: enough for a few concurrent callers' shard batches.
const writeWorkers = 16

// Engine is the gateway-side middleware core.
type Engine struct {
	keys       keys.Provider
	shards     *ring.Ring // the cloud: 1 shard unless Config.Cloud fronts a ring
	coalescers []*coalesce.Conn
	local      *kvstore.Store
	registry   *spi.Registry
	// workers runs what a write sends concurrently — the id reservation,
	// all but one of its shard batches — on reused goroutines.
	workers *conc.Pool

	// stats is the engine-resident tactic cost model (EWMA latencies, RPC
	// counts, per-field workload rates) feeding selection and replanning.
	stats       *planner.Stats
	priors      map[planner.Key]model.CostPrior
	plannerOn   bool
	migThrottle time.Duration

	// migMu serializes online re-indexes (one migration runs at a time).
	migMu    sync.Mutex
	stopCh   chan struct{}
	stopOnce sync.Once
	bg       sync.WaitGroup

	mu      sync.RWMutex
	schemas map[string]*schemaRuntime
}

// schemaRuntime is one registered schema with its selected tactics. The
// struct is immutable once published in Engine.schemas: plan changes swap
// in a fresh copy (copy-on-write), so readers never observe a half-updated
// plan map. The two locks are pointers shared across swaps, so exclusion
// spans runtime generations.
type schemaRuntime struct {
	schema    *model.Schema
	plans     map[string]spi.Plan   // field name -> plan
	instances map[string]spi.Tactic // tactic name -> live instance
	aead      *primitives.AEAD      // whole-document encryption (SecureEnc)

	// docMu serializes Update/Delete flows, whose retrieve-reindex-rewrite
	// sequences are not atomic; plain inserts need no lock (index counters
	// are reserved atomically by the tactic clients). Online re-index scan
	// batches also hold it, so scan writes never interleave a mutation.
	docMu *sync.Mutex
	// writers is read-locked by every write operation for its duration;
	// a migration write-locks it once after swapping the runtime so that
	// writers still using the pre-swap runtime (which lacks the dual-write
	// hook) drain before the backfill scan starts.
	writers *sync.RWMutex
	// mig is the in-flight online re-index touching this schema, nil
	// outside a dual-write window.
	mig *migration

	// order caches indexOrder's result.
	orderOnce sync.Once
	order     []tacticFields
}

// clone copies the runtime for a copy-on-write swap. Lock pointers and
// live tactic instances carry over; maps are copied shallowly.
func (rt *schemaRuntime) clone() *schemaRuntime {
	nrt := &schemaRuntime{
		schema:    rt.schema,
		plans:     make(map[string]spi.Plan, len(rt.plans)),
		instances: make(map[string]spi.Tactic, len(rt.instances)),
		aead:      rt.aead,
		docMu:     rt.docMu,
		writers:   rt.writers,
		mig:       rt.mig,
	}
	for k, v := range rt.plans {
		nrt.plans[k] = v
	}
	for k, v := range rt.instances {
		nrt.instances[k] = v
	}
	return nrt
}

// NewEngine validates cfg and builds an engine. Unless disabled, every
// shard connection is wrapped in a write coalescer: the wrapping preserves
// ring placement exactly (same points, same virtual-node count), so
// key→shard assignment — which the secure indexes depend on — is untouched.
// A thin RPC-counting wrapper sits outside the coalescer on every shard
// conn, so one caller-issued sub-call bills one RPC to its tactic however
// it is batched downstream.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Keys == nil || cfg.Cloud == nil || cfg.Local == nil || cfg.Registry == nil {
		return nil, errors.New("core: Config requires Keys, Cloud, Local and Registry")
	}
	stats := planner.NewStats()
	priors := make(map[planner.Key]model.CostPrior)
	for _, name := range cfg.Registry.Names() {
		reg, err := cfg.Registry.Lookup(name)
		if err != nil {
			return nil, err
		}
		for op, p := range reg.Descriptor.Perf.Costs {
			priors[planner.Key{Tactic: name, Op: op}] = p
		}
	}
	stats.SetPriors(priors)

	var coals []*coalesce.Conn
	base := ring.Of(cfg.Cloud)
	if !cfg.Coalesce.Disabled {
		base = base.WithConns(func(_ int, conn transport.Conn) transport.Conn {
			cc := coalesce.New(conn, cfg.Coalesce)
			coals = append(coals, cc)
			return cc
		})
	}
	base = base.WithConns(func(_ int, conn transport.Conn) transport.Conn {
		return planner.WrapConn(conn, stats)
	})
	e := &Engine{
		keys:        cfg.Keys,
		shards:      base,
		coalescers:  coals,
		local:       cfg.Local,
		registry:    cfg.Registry,
		workers:     conc.NewPool(writeWorkers),
		stats:       stats,
		priors:      priors,
		plannerOn:   cfg.Planner,
		migThrottle: cfg.MigrateThrottle,
		stopCh:      make(chan struct{}),
		schemas:     make(map[string]*schemaRuntime),
	}
	return e, nil
}

// Close stops background work (resumed migrations), waits until every
// shard's write coalescer is idle — so a write whose caller gave up
// waiting has still shipped — and detaches the engine's cost counters from
// the process-wide expvar export. The cloud connections and local store
// stay open — they belong to the caller.
func (e *Engine) Close() {
	e.stopOnce.Do(func() {
		close(e.stopCh)
		e.workers.Close() // writes still in flight fall back to plain goroutines
	})
	e.bg.Wait()
	for _, c := range e.coalescers {
		c.Drain()
	}
	e.stats.Close()
}

// TacticStats snapshots the engine's live tactic cost counters.
func (e *Engine) TacticStats() planner.Snapshot { return e.stats.Snapshot() }

// CoalesceStats aggregates the per-shard write coalescers' counters
// (zero-valued when coalescing is disabled).
func (e *Engine) CoalesceStats() coalesce.Stats {
	var out coalesce.Stats
	for _, c := range e.coalescers {
		out.Merge(c.Stats())
	}
	return out
}

// Registry exposes the tactic catalog (for tooling such as Table 2
// generation).
func (e *Engine) Registry() *spi.Registry { return e.registry }

func schemaKey(name string) []byte { return []byte("schema/" + name) }

// planKey stores a field's selected plan so restarts resume the *running*
// plan, not whatever selection would pick today — after an online
// re-index, selection and the live indexes would otherwise disagree.
func planKey(schema, field string) []byte { return []byte("plan/" + schema + "/" + field) }

// persistedPlan is the stored form of one field's plan.
type persistedPlan struct {
	ByOp    map[model.Op]string  `json:"by_op"`
	ByAgg   map[model.Agg]string `json:"by_agg"`
	Tactics []string             `json:"tactics"`
}

func toPersisted(p spi.Plan) persistedPlan {
	return persistedPlan{ByOp: p.ByOp, ByAgg: p.ByAgg, Tactics: p.Tactics}
}

func (p persistedPlan) plan() spi.Plan {
	return spi.Plan{ByOp: p.ByOp, ByAgg: p.ByAgg, Tactics: p.Tactics}
}

func (e *Engine) storePlan(schema, field string, p spi.Plan) error {
	raw, err := json.Marshal(toPersisted(p))
	if err != nil {
		return fmt.Errorf("core: encoding plan: %w", err)
	}
	if err := e.local.Set(planKey(schema, field), raw); err != nil {
		return fmt.Errorf("core: persisting plan: %w", err)
	}
	return nil
}

// loadPlan returns the persisted plan for a field, if one exists and still
// satisfies the field's current annotation (pins, leakage ceiling, op
// coverage, registered tactics). A stale or violating plan reports
// ok=false so selection runs fresh — this is how an operator tightening a
// field's protection class forces the next restart (or replan) off a
// now-too-leaky tactic.
func (e *Engine) loadPlan(schema string, f model.Field) (spi.Plan, bool) {
	raw, ok, err := e.local.Get(planKey(schema, f.Name))
	if err != nil || !ok {
		return spi.Plan{}, false
	}
	var pp persistedPlan
	if err := json.Unmarshal(raw, &pp); err != nil {
		return spi.Plan{}, false
	}
	p := pp.plan()
	if !e.planValid(f, p) {
		return spi.Plan{}, false
	}
	return p, true
}

// planValid checks a plan against the field's current annotation.
func (e *Engine) planValid(f model.Field, p spi.Plan) bool {
	pinned := make(map[string]bool)
	for _, n := range f.Annotation.Tactics {
		pinned[n] = true
	}
	for _, n := range p.Tactics {
		reg, err := e.registry.Lookup(n)
		if err != nil {
			return false
		}
		d := reg.Descriptor
		if len(pinned) > 0 && !pinned[n] {
			return false
		}
		if d.Leakage != 0 && !f.Annotation.Class.Tolerates(d.Leakage) {
			return false
		}
	}
	for _, op := range f.Annotation.Ops {
		switch op {
		case model.OpRead, model.OpUpdate, model.OpDelete:
			continue
		}
		if _, ok := p.ByOp[op]; !ok {
			return false
		}
	}
	for _, agg := range f.Annotation.Aggs {
		switch agg {
		case model.AggCount, model.AggMin, model.AggMax:
			continue
		}
		if _, ok := p.ByAgg[agg]; !ok {
			return false
		}
	}
	return true
}

// prior returns the descriptor cost prior for one (tactic, op).
func (e *Engine) prior(tactic string, op model.Op) model.CostPrior {
	return e.priors[planner.Key{Tactic: tactic, Op: op}]
}

// costFn estimates per-(tactic, op) cost from live measurements, falling
// back to calibrated descriptor priors (planner mode).
func (e *Engine) costFn(schema string) spi.CostFn {
	docs := float64(e.stats.Docs(schema))
	return func(tactic string, op model.Op) (float64, bool) {
		return e.stats.Cost(tactic, op, e.prior(tactic, op), docs)
	}
}

// measuredCostFn estimates cost from live measurements only — the classic
// selector's tie-breaker, which must never flip a default plan on priors
// alone (deployments without the planner keep seed-identical selections
// until real observations exist).
func (e *Engine) measuredCostFn(schema string) spi.CostFn {
	docs := float64(e.stats.Docs(schema))
	return func(tactic string, op model.Op) (float64, bool) {
		return e.stats.MeasuredCost(tactic, op, e.prior(tactic, op), docs)
	}
}

// selectField runs tactic selection under the engine's configured policy.
func (e *Engine) selectField(schema string, f model.Field, weights map[model.Op]float64) (spi.Plan, error) {
	if e.plannerOn {
		return e.registry.SelectWith(f, spi.SelectOptions{
			Cheapest: true,
			Cost:     e.costFn(schema),
			Weights:  weights,
		})
	}
	return e.registry.SelectWith(f, spi.SelectOptions{Cost: e.measuredCostFn(schema)})
}

// docRoute is the routing key placing one document's blob on a shard. It is
// a pure function of (schema, id), so the id a document was inserted under
// always resolves to the shard that stored it.
func docRoute(schema, id string) string { return "doc/" + schema + "/" + id }

// RegisterSchema validates the schema, runs adaptive tactic selection for
// every sensitive field, instantiates and sets up the selected tactics,
// and persists the schema metadata (the Schema interface of Fig. 3).
func (e *Engine) RegisterSchema(ctx context.Context, s *model.Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	if _, dup := e.schemas[s.Name]; dup {
		e.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrSchemaExists, s.Name)
	}
	e.mu.Unlock()

	rt, err := e.buildRuntime(ctx, s)
	if err != nil {
		return err
	}

	raw, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("core: encoding schema: %w", err)
	}
	if err := e.local.Set(schemaKey(s.Name), raw); err != nil {
		return fmt.Errorf("core: persisting schema: %w", err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.schemas[s.Name]; dup {
		return fmt.Errorf("%w: %q", ErrSchemaExists, s.Name)
	}
	e.schemas[s.Name] = rt
	return nil
}

// LoadSchemas restores previously registered schemas from the gateway
// store (gateway restart). Each field resumes its *persisted* plan when it
// still satisfies the annotation (an online re-index may have moved it off
// the default selection); otherwise selection runs fresh. Interrupted
// online re-indexes found in the store are resumed in the background.
func (e *Engine) LoadSchemas(ctx context.Context) error {
	keysList, err := e.local.Keys([]byte("schema/"))
	if err != nil {
		return err
	}
	for _, k := range keysList {
		raw, ok, err := e.local.Get(k)
		if err != nil {
			return fmt.Errorf("core: loading stored schema %s: %w", k, err)
		}
		if !ok {
			continue // key vanished between Keys and Get; nothing to restore
		}
		var s model.Schema
		if err := json.Unmarshal(raw, &s); err != nil {
			return fmt.Errorf("core: decoding stored schema %s: %w", k, err)
		}
		e.mu.RLock()
		_, loaded := e.schemas[s.Name]
		e.mu.RUnlock()
		if loaded {
			continue
		}
		rt, err := e.buildRuntime(ctx, &s)
		if err != nil {
			return err
		}
		e.mu.Lock()
		e.schemas[s.Name] = rt
		e.mu.Unlock()
	}
	return e.resumeMigrations(ctx)
}

func (e *Engine) buildRuntime(ctx context.Context, s *model.Schema) (*schemaRuntime, error) {
	rt := &schemaRuntime{
		schema:    s,
		plans:     make(map[string]spi.Plan),
		instances: make(map[string]spi.Tactic),
		docMu:     &sync.Mutex{},
		writers:   &sync.RWMutex{},
	}
	for _, f := range s.SensitiveFields() {
		plan, ok := e.loadPlan(s.Name, f)
		if !ok {
			var err error
			plan, err = e.selectField(s.Name, f, nil)
			if err != nil {
				return nil, err
			}
			if err := e.storePlan(s.Name, f.Name, plan); err != nil {
				return nil, err
			}
		}
		rt.plans[f.Name] = plan
		for _, name := range plan.Tactics {
			if _, ok := rt.instances[name]; ok {
				continue
			}
			inst, err := e.instantiate(ctx, s.Name, name)
			if err != nil {
				return nil, err
			}
			rt.instances[name] = inst
		}
	}

	docKey, err := e.keys.Key(keys.Ref{Schema: s.Name, Field: "*", Tactic: "SecureEnc", Purpose: "doc"})
	if err != nil {
		return nil, err
	}
	aead, err := primitives.NewAEAD(docKey)
	if err != nil {
		return nil, err
	}
	rt.aead = aead
	return rt, nil
}

// instantiate builds the named tactic's instance for schema and runs its
// Setup when the tactic has one.
func (e *Engine) instantiate(ctx context.Context, schema, name string) (spi.Tactic, error) {
	reg, err := e.registry.Lookup(name)
	if err != nil {
		return nil, err
	}
	inst, err := reg.Factory(spi.Binding{Schema: schema, Keys: e.keys, Cloud: e.shards, Local: e.local})
	if err != nil {
		return nil, fmt.Errorf("core: instantiating %s: %w", name, err)
	}
	if p, ok := inst.(spi.Provisioner); ok {
		if err := p.Setup(ctx); err != nil {
			return nil, fmt.Errorf("core: setting up %s: %w", name, err)
		}
	}
	return inst, nil
}

func (e *Engine) runtime(schema string) (*schemaRuntime, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	rt, ok := e.schemas[schema]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSchemaUnknown, schema)
	}
	return rt, nil
}

// writeRuntime returns the current runtime with its writers lock
// read-held, retrying if a migration swapped the runtime between lookup
// and lock. Once it returns, a migration's drain barrier waits for the
// returned release func, so the writer provably sees the runtime's mig
// state (a writer that missed the dual-write hook can never overlap the
// backfill scan). Callers must invoke release when their index writes are
// done.
func (e *Engine) writeRuntime(schema string) (*schemaRuntime, func(), error) {
	for {
		rt, err := e.runtime(schema)
		if err != nil {
			return nil, nil, err
		}
		rt.writers.RLock()
		cur, err := e.runtime(schema)
		if err == nil && cur == rt {
			return rt, rt.writers.RUnlock, nil
		}
		rt.writers.RUnlock()
		if err != nil {
			return nil, nil, err
		}
	}
}

// Schemas returns the registered schema names, sorted.
func (e *Engine) Schemas() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.schemas))
	for n := range e.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Plan returns the selected tactic plan for a field (tooling/tests).
func (e *Engine) Plan(schema, field string) (spi.Plan, error) {
	rt, err := e.runtime(schema)
	if err != nil {
		return spi.Plan{}, err
	}
	plan, ok := rt.plans[field]
	if !ok {
		return spi.Plan{}, fmt.Errorf("core: field %q has no plan (insensitive or unknown)", field)
	}
	return plan, nil
}

// EffectiveClass returns a field's protection level under the weakest-link
// rule.
func (e *Engine) EffectiveClass(schema, field string) (model.Class, error) {
	rt, err := e.runtime(schema)
	if err != nil {
		return 0, err
	}
	plan, ok := rt.plans[field]
	if !ok {
		return 0, fmt.Errorf("core: field %q has no plan", field)
	}
	return e.registry.EffectiveClass(plan), nil
}

// GenerateID returns a fresh document id (the DocIDGen interface).
func GenerateID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("core: generating doc id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// docScratch recycles the buffers document plaintexts are built in and
// decrypted into. Nothing decoded from a plaintext aliases it (DecodeFields
// copies strings), so a buffer goes back to the pool as soon as the call
// that drew it returns.
var docScratch = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// sealDoc encrypts the whole document (SecureEnc): the model codec's
// encoding of its fields, sealed with the document id as associated data.
// The scratch buffer holds id || plaintext, so the associated data costs no
// allocation of its own.
func (rt *schemaRuntime) sealDoc(doc *model.Document) ([]byte, error) {
	bp := docScratch.Get().(*[]byte)
	defer docScratch.Put(bp)
	buf, err := model.AppendFields(append((*bp)[:0], doc.ID...), rt.schema, doc.Fields)
	if err != nil {
		return nil, fmt.Errorf("core: encoding document %s: %w", doc.ID, err)
	}
	*bp = buf
	n := len(doc.ID)
	return rt.aead.Seal(buf[n:], buf[:n])
}

// openDoc decrypts and decodes a whole-document blob. A blob whose plaintext
// is not in the codec's format (model.ErrDocFormat) is an error naming the
// document; there is no second decoder.
func (rt *schemaRuntime) openDoc(id string, blob []byte) (*model.Document, error) {
	bp := docScratch.Get().(*[]byte)
	defer docScratch.Put(bp)
	n := len(id)
	ad := append((*bp)[:0], id...)
	buf, err := rt.aead.OpenInto(ad, blob, ad[:n:n])
	if err != nil {
		return nil, fmt.Errorf("core: document %s failed authentication: %w", id, err)
	}
	*bp = buf
	fields, err := model.DecodeFields(rt.schema, buf[n:])
	if err != nil {
		return nil, fmt.Errorf("core: decoding document %s: %w", id, err)
	}
	return &model.Document{ID: id, Fields: fields}, nil
}

// canonicalValue converts a value of a field of type t to the engine's
// internal type: int64 for ints, float64 for floats with -0 made 0, so the
// two zeros index, order and compare alike. Other types pass unchanged.
func canonicalValue(t model.FieldType, v any) (any, error) {
	switch t {
	case model.TypeInt:
		i, _, err := model.NormalizeNumeric(v, t)
		return i, err
	case model.TypeFloat:
		_, fl, err := model.NormalizeNumeric(v, t)
		if fl == 0 {
			fl = 0
		}
		return fl, err
	}
	return v, nil
}

// normalizeInput canonicalizes caller-provided values to the engine's
// internal types (see canonicalValue).
func normalizeInput(s *model.Schema, fields map[string]any) error {
	for name, v := range fields {
		f, ok := s.Field(name)
		if !ok {
			continue
		}
		c, err := canonicalValue(f.Type, v)
		if err != nil {
			return fmt.Errorf("core: field %q: %w", name, err)
		}
		fields[name] = c
	}
	return nil
}

// Insert stores a new document: whole-document encryption plus secure
// indexing of every sensitive field (the Entities interface of Fig. 3).
// A document with an empty ID gets a generated one; the stored ID is
// returned.
//
// The blob and every index mutation form one write set, shipped as one
// batch per owning shard. A caller-supplied id may be taken, and only the
// document's own shard can tell, so its put(IfAbsent) goes ahead as a
// reservation wave of its own — the index crypto runs while it is in
// flight, and a duplicate is rejected before any index write leaves the
// gateway. A generated id cannot collide: its put is just the first member
// of the doc shard's batch, and the insert is a single wave.
func (e *Engine) Insert(ctx context.Context, schema string, doc *model.Document) (string, error) {
	rt, err := e.runtime(schema)
	if err != nil {
		return "", err
	}
	generated := doc.ID == ""
	if generated {
		id, err := GenerateID()
		if err != nil {
			return "", err
		}
		doc.ID = id
	}
	if err := normalizeInput(rt.schema, doc.Fields); err != nil {
		return "", err
	}
	if err := doc.ValidateAgainst(rt.schema); err != nil {
		return "", err
	}

	blob, err := rt.sealDoc(doc)
	if err != nil {
		return "", err
	}

	// Re-acquire the runtime under the writers lock: a migration swapping
	// in a dual-write window must either drain this insert first or be
	// visible to it.
	rt, release, err := e.writeRuntime(schema)
	if err != nil {
		return "", err
	}
	defer release()

	// No doc lock here: concurrent inserts of distinct documents are safe —
	// tactic clients reserve index counters atomically, and the IfAbsent
	// put rejects a racing duplicate id before its index writes are sent.
	route := docRoute(schema, doc.ID)
	put := cloud.DocPutArgs{Collection: schema, ID: doc.ID, Blob: blob, IfAbsent: true}
	w := &write{e: e, schema: schema}
	var reserved chan error
	if generated {
		w.set.Add(spi.Mutation{Route: route, Service: cloud.DocService, Method: "put", Args: put})
	} else {
		reserved = make(chan error, 1) // the one send never blocks
		e.workers.Go(func() { reserved <- e.shards.Call(ctx, route, cloud.DocService, "put", put, nil) })
	}
	err = w.index(rt, doc, model.OpInsert)
	if reserved != nil {
		if rerr := <-reserved; rerr != nil {
			if transport.IsAlreadyExistsError(rerr) {
				return "", fmt.Errorf("%w: %s", ErrDocumentExists, doc.ID)
			}
			return "", rerr
		}
	}
	// The dual-write claims the id against the backfill scan, so it waits
	// until the id is known to be this insert's.
	if err == nil {
		err = w.mirror(rt, doc, model.OpInsert, false)
	}
	if err == nil {
		err = w.flush(ctx)
	}
	if err != nil {
		// The document blob is (or may be) stored but some of its index
		// entries are not, so searches would never surface it: compensate by
		// removing the blob, best-effort, on a context that survives the
		// caller's cancellation. Index cells that did land stay behind as
		// unreachable garbage (DESIGN.md §6 "The write path" says why they
		// are not deleted). The original error is what the caller sees
		// either way.
		dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		if derr := e.shards.Call(dctx, route, cloud.DocService, "delete",
			cloud.DocDeleteArgs{Collection: schema, ID: doc.ID}, nil); derr != nil && !transport.IsNotFoundError(derr) {
			return "", fmt.Errorf("%w (compensating delete also failed: %v)", err, derr)
		}
		return "", err
	}
	e.stats.DocDelta(schema, 1)
	return doc.ID, nil
}

// Get retrieves and decrypts one document.
func (e *Engine) Get(ctx context.Context, schema, id string) (*model.Document, error) {
	rt, err := e.runtime(schema)
	if err != nil {
		return nil, err
	}
	var reply cloud.DocGetReply
	if err := e.shards.Call(ctx, docRoute(schema, id), cloud.DocService, "get",
		cloud.DocGetArgs{Collection: schema, ID: id}, &reply); err != nil {
		if transport.IsNotFoundError(err) {
			return nil, fmt.Errorf("%w: %s", ErrDocumentMissing, id)
		}
		return nil, err
	}
	return rt.openDoc(id, reply.Blob)
}

// Update replaces a document: changed sensitive fields are re-indexed
// (delete old + insert new), the whole-document ciphertext is rewritten.
func (e *Engine) Update(ctx context.Context, schema string, doc *model.Document) error {
	rt, err := e.runtime(schema)
	if err != nil {
		return err
	}
	if doc.ID == "" {
		return errors.New("core: update requires a document id")
	}
	if err := normalizeInput(rt.schema, doc.Fields); err != nil {
		return err
	}
	if err := doc.ValidateAgainst(rt.schema); err != nil {
		return err
	}
	old, err := e.Get(ctx, schema, doc.ID)
	if err != nil {
		return err
	}

	rt, release, err := e.writeRuntime(schema)
	if err != nil {
		return err
	}
	defer release()
	rt.docMu.Lock()
	defer rt.docMu.Unlock()
	if err := e.reindex(ctx, rt, old, model.OpDelete); err != nil {
		return err
	}
	blob, err := rt.sealDoc(doc)
	if err != nil {
		return err
	}
	if err := e.shards.Call(ctx, docRoute(schema, doc.ID), cloud.DocService, "put",
		cloud.DocPutArgs{Collection: schema, ID: doc.ID, Blob: blob}, nil); err != nil {
		return err
	}
	return e.reindex(ctx, rt, doc, model.OpInsert)
}

// Delete removes a document and all its index entries.
func (e *Engine) Delete(ctx context.Context, schema, id string) error {
	old, err := e.Get(ctx, schema, id)
	if err != nil {
		return err
	}
	rt, release, err := e.writeRuntime(schema)
	if err != nil {
		return err
	}
	defer release()
	rt.docMu.Lock()
	defer rt.docMu.Unlock()
	if err := e.reindex(ctx, rt, old, model.OpDelete); err != nil {
		return err
	}
	if err := e.shards.Call(ctx, docRoute(schema, id), cloud.DocService, "delete",
		cloud.DocDeleteArgs{Collection: schema, ID: id}, nil); err != nil {
		if transport.IsNotFoundError(err) {
			return fmt.Errorf("%w: %s", ErrDocumentMissing, id)
		}
		return err
	}
	e.stats.DocDelta(schema, -1)
	return nil
}

// Compact runs index maintenance for one (field, value) keyword: if the
// field's search tactic supports compaction (BIEX's 2Lev packed rebuild),
// its cells are repacked for read efficiency. Fields without a compacting
// tactic return nil (nothing to do).
func (e *Engine) Compact(ctx context.Context, schema, field string, value any) error {
	rt, err := e.runtime(schema)
	if err != nil {
		return err
	}
	plan, ok := rt.plans[field]
	if !ok {
		return fmt.Errorf("core: field %q has no plan", field)
	}
	for _, name := range plan.Tactics {
		if c, ok := rt.instances[name].(spi.Compactor); ok {
			if err := c.Compact(ctx, field, value); err != nil {
				return fmt.Errorf("core: compacting %s: %w", name, err)
			}
		}
	}
	return nil
}

// Count returns the number of stored documents, summing per-shard counts
// when the cloud tier is sharded (shards hold disjoint id ranges).
func (e *Engine) Count(ctx context.Context, schema string) (int, error) {
	if _, err := e.runtime(schema); err != nil {
		return 0, err
	}
	counts := make([]int, e.shards.N())
	err := e.shards.Each(ctx, func(gctx context.Context, i int, conn transport.Conn) error {
		var reply cloud.DocCountReply
		if err := conn.Call(gctx, cloud.DocService, "count",
			cloud.DocCountArgs{Collection: schema}, &reply); err != nil {
			return err
		}
		counts[i] = reply.Count
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Fetch retrieves and decrypts the documents with the given ids, skipping
// missing ones, preserving id order.
func (e *Engine) Fetch(ctx context.Context, schema string, ids []string) ([]*model.Document, error) {
	rt, err := e.runtime(schema)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, nil
	}
	records, err := e.getMany(ctx, schema, ids)
	if err != nil {
		return nil, err
	}
	docs := make([]*model.Document, len(records))
	for i, rec := range records {
		if docs[i], err = rt.openDoc(rec.ID, rec.Blob); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// getMany fetches blobs for ids, in request order, skipping missing ones.
// It splits the ids by owning shard, fans the per-shard getmany calls out
// concurrently, and reassembles the gathered records in the original id
// order.
func (e *Engine) getMany(ctx context.Context, schema string, ids []string) ([]docstore.Record, error) {
	routes := make([]string, len(ids))
	for i, id := range ids {
		routes[i] = docRoute(schema, id)
	}
	groups := e.shards.Split(routes)
	replies := make([][]docstore.Record, e.shards.N())
	err := e.shards.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
		idx := groups[shard]
		if len(idx) == 0 {
			return nil
		}
		sub := make([]string, len(idx))
		for j, i := range idx {
			sub[j] = ids[i]
		}
		var reply cloud.DocGetManyReply
		if err := conn.Call(gctx, cloud.DocService, "getmany",
			cloud.DocGetManyArgs{Collection: schema, IDs: sub}, &reply); err != nil {
			return err
		}
		replies[shard] = reply.Records
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A shard's reply keeps the order of its sub-request and only skips
	// missing ids, so walking ids in order and taking the head of the owning
	// shard's reply whenever it matches restores request order.
	owner := make([]int, len(ids))
	for shard, idx := range groups {
		for _, i := range idx {
			owner[i] = shard
		}
	}
	records := make([]docstore.Record, 0, len(ids))
	for i, id := range ids {
		if rs := replies[owner[i]]; len(rs) > 0 && rs[0].ID == id {
			records = append(records, rs[0])
			replies[owner[i]] = rs[1:]
		}
	}
	return records, nil
}
