// Package datablinder is a distributed data protection middleware
// supporting search and computation on encrypted data — a from-scratch Go
// reproduction of the system described in:
//
//	Heydari Beni, Lagaisse, Joosen, Aly, Brackx.
//	"DataBlinder: A distributed data protection middleware supporting
//	search and computation on encrypted data." Middleware Industry 2019.
//
// Applications in the trusted zone open a Client (the gateway), annotate
// their document schemas with per-field protection classes (C1..C5) and
// required operations, and use plain CRUD/search/aggregate calls. The
// middleware adaptively selects cryptographic data protection tactics
// (DET, RND, Mitra, Sophos, BIEX-2Lev, BIEX-ZMF, OPE, ORE, Paillier) per
// field, encrypts everything gateway-side, and executes token-based
// protocols against the untrusted cloud side (see cmd/cloudserver).
//
// Quick start:
//
//	client, err := datablinder.Open(ctx, datablinder.Options{InProcessCloud: true})
//	...
//	schema := &datablinder.Schema{Name: "observation", Fields: []datablinder.Field{
//	    datablinder.MustField("status", datablinder.TypeString, "C3, op [I, EQ, BL]"),
//	    datablinder.MustField("value", datablinder.TypeFloat, "C3, op [I, EQ, BL], agg [avg]"),
//	}}
//	err = client.RegisterSchema(ctx, schema)
//	obs := client.Entities("observation")
//	id, err := obs.Insert(ctx, &datablinder.Document{Fields: map[string]any{...}})
//	docs, err := obs.Search(ctx, datablinder.Eq{Field: "status", Value: "final"})
//	avg, err := obs.Aggregate(ctx, "value", datablinder.AggAvg, nil)
package datablinder

import (
	"context"
	"errors"
	"fmt"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/coalesce"
	"datablinder/internal/core"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/planner"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/store/wal"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// Re-exported data access model types (paper §3.2).
type (
	// Schema describes one document type and its protection annotations.
	Schema = model.Schema
	// Field is a named, typed, annotated schema field.
	Field = model.Field
	// Annotation is the per-field protection annotation.
	Annotation = model.Annotation
	// Document is an application document.
	Document = model.Document
	// FieldType is a schema field type.
	FieldType = model.FieldType
	// Class is a protection class C1..C5.
	Class = model.Class
	// Agg is an aggregate function.
	Agg = model.Agg
	// Op is a data-access operation code.
	Op = model.Op
	// Leakage is the five-level leakage taxonomy.
	Leakage = model.Leakage
	// TacticDescriptor describes a registered tactic (Table 2 metadata).
	TacticDescriptor = spi.Descriptor
)

// Re-exported query predicate types.
type (
	// Predicate is a search query tree node.
	Predicate = core.Predicate
	// Eq matches field == value.
	Eq = core.Eq
	// Range matches a numeric interval.
	Range = core.Range
	// And is a conjunction.
	And = core.And
	// Or is a disjunction.
	Or = core.Or
	// Not is a negation.
	Not = core.Not
)

// Field type constants.
const (
	TypeString = model.TypeString
	TypeInt    = model.TypeInt
	TypeFloat  = model.TypeFloat
	TypeBool   = model.TypeBool
)

// Protection classes (C1 = most protective).
const (
	Class1 = model.Class1
	Class2 = model.Class2
	Class3 = model.Class3
	Class4 = model.Class4
	Class5 = model.Class5
)

// Aggregate functions.
const (
	AggSum   = model.AggSum
	AggAvg   = model.AggAvg
	AggCount = model.AggCount
	AggMin   = model.AggMin
	AggMax   = model.AggMax
)

// Range constructor helpers.
var (
	// Gte matches field >= v.
	Gte = core.Gte
	// Lte matches field <= v.
	Lte = core.Lte
	// Between matches lo <= field <= hi.
	Between = core.Between
)

// Errors surfaced by the client.
var (
	ErrDocumentExists   = core.ErrDocumentExists
	ErrDocumentMissing  = core.ErrDocumentMissing
	ErrSchemaUnknown    = core.ErrSchemaUnknown
	ErrSchemaExists     = core.ErrSchemaExists
	ErrUnsupportedQuery = core.ErrUnsupportedQuery
)

// NewField builds a sensitive field from the paper's annotation notation,
// e.g. NewField("status", TypeString, "C3, op [I, EQ, BL]").
func NewField(name string, ft FieldType, annotation string) (Field, error) {
	ann, err := model.ParseAnnotation(annotation)
	if err != nil {
		return Field{}, err
	}
	return Field{Name: name, Type: ft, Sensitive: true, Annotation: ann}, nil
}

// MustField is NewField panicking on error; use for static schemas.
func MustField(name string, ft FieldType, annotation string) Field {
	f, err := NewField(name, ft, annotation)
	if err != nil {
		panic(err)
	}
	return f
}

// PlainField builds an insensitive (unindexed, but still stored encrypted
// inside the document blob) field.
func PlainField(name string, ft FieldType) Field {
	return Field{Name: name, Type: ft}
}

// Options configures Open.
type Options struct {
	// CloudAddrs lists the TCP addresses of the cloud tier's running
	// cloudservers, one per shard. Order matters: shard identity is
	// positional, so the same list (in the same order) must be passed on
	// every gateway start or routing keys will resolve to the wrong nodes.
	// One address is a single-node cloud. Mutually exclusive with
	// InProcessCloud.
	CloudAddrs []string
	// InProcessCloud embeds one cloud node in this process (single-process
	// demos, tests, benchmarks).
	InProcessCloud bool

	// MasterKeyPath loads (or, with CreateKey, creates) the gateway master
	// key file. Empty means an ephemeral random key.
	MasterKeyPath string
	// CreateKey writes a fresh master key to MasterKeyPath when the file
	// does not exist yet.
	CreateKey bool

	// LocalStatePath enables WAL persistence of gateway state (tactic
	// counters, schemas) under this directory. Empty means in-memory.
	LocalStatePath string

	// CloudKVPath enables persistence for the in-process cloud node: one
	// store holding its indexes and documents.
	CloudKVPath string

	// FsyncPolicy selects WAL durability for the local store and any
	// in-process cloud node: "always", "interval" (default), or "never".
	FsyncPolicy string

	// Planner enables cost-based tactic selection: new plans pick the
	// cheapest tactic satisfying the field's leakage budget (live
	// measurements first, descriptor cost priors before any exist)
	// instead of the classic highest-tolerated-leakage rule. Annotation
	// tactic pins remain hard overrides either way.
	Planner bool
	// MigrateThrottle pauses online re-index scans between batches to
	// bound the migration's impact on live traffic.
	MigrateThrottle time.Duration
}

// Client is the application-facing gateway handle (the Schema, Entities
// and Keys interfaces of the paper's Fig. 3).
type Client struct {
	engine *core.Engine
	local  *kvstore.Store
	conn   transport.Conn
	node   *cloud.Node // the embedded cloud in in-process mode
}

// Open assembles a gateway: key management, local state, cloud channel,
// tactic registry, and the middleware core. It restores previously
// registered schemas from persistent local state.
func Open(ctx context.Context, opts Options) (*Client, error) {
	remote := len(opts.CloudAddrs) > 0
	if !remote && !opts.InProcessCloud {
		return nil, errors.New("datablinder: Options needs CloudAddrs or InProcessCloud")
	}
	if remote && opts.InProcessCloud {
		return nil, errors.New("datablinder: CloudAddrs and InProcessCloud are mutually exclusive")
	}

	var provider *keys.Store
	var err error
	switch {
	case opts.MasterKeyPath == "":
		provider, err = keys.NewRandomStore()
	default:
		provider, err = keys.Load(opts.MasterKeyPath)
		if err != nil && opts.CreateKey {
			provider, err = keys.NewRandomStore()
			if err == nil {
				err = provider.Save(opts.MasterKeyPath)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("datablinder: key setup: %w", err)
	}

	fsync, err := wal.ParsePolicy(opts.FsyncPolicy)
	if err != nil {
		return nil, fmt.Errorf("datablinder: %w", err)
	}
	var local *kvstore.Store
	if opts.LocalStatePath != "" {
		local, err = kvstore.Open(opts.LocalStatePath, kvstore.Options{Fsync: fsync})
		if err != nil {
			return nil, fmt.Errorf("datablinder: local state: %w", err)
		}
	} else {
		local = kvstore.New()
	}

	client := &Client{local: local}
	if opts.InProcessCloud {
		node, err := cloud.NewNode(cloud.Options{KVPath: opts.CloudKVPath, FsyncPolicy: opts.FsyncPolicy})
		if err != nil {
			client.Close()
			return nil, err
		}
		client.node = node
		client.conn = transport.NewLoopback(node.Mux)
	} else {
		conns := make([]transport.Conn, 0, len(opts.CloudAddrs))
		for _, addr := range opts.CloudAddrs {
			conn, err := transport.Dial(addr, transport.DialOptions{})
			if err != nil {
				for _, c := range conns {
					c.Close()
				}
				local.Close()
				return nil, fmt.Errorf("datablinder: dialing shard %s: %w", addr, err)
			}
			conns = append(conns, conn)
		}
		// One shard is a direct connection: no ring, no hashing.
		client.conn = conns[0]
		if len(conns) > 1 {
			client.conn = ring.NewClient(conns, 0)
		}
	}

	registry, err := tactics.Registry()
	if err != nil {
		client.Close()
		return nil, err
	}
	engine, err := core.NewEngine(core.Config{
		Keys:            provider,
		Cloud:           client.conn,
		Local:           local,
		Registry:        registry,
		Planner:         opts.Planner,
		MigrateThrottle: opts.MigrateThrottle,
	})
	if err != nil {
		client.Close()
		return nil, err
	}
	client.engine = engine
	if err := engine.LoadSchemas(ctx); err != nil {
		client.Close()
		return nil, fmt.Errorf("datablinder: restoring schemas: %w", err)
	}
	return client, nil
}

// Close stops background migrations, drains the write coalescers, and
// releases the cloud connection and local state. It is idempotent.
func (c *Client) Close() error {
	var first error
	if c.engine != nil {
		c.engine.Close()
	}
	if c.conn != nil {
		if err := c.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.node != nil {
		if err := c.node.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.local != nil {
		if err := c.local.Close(); err != nil && first == nil && !errors.Is(err, kvstore.ErrClosed) {
			first = err
		}
	}
	return first
}

// RegisterSchema validates and registers a schema, running adaptive
// tactic selection for every sensitive field (the Schema interface).
func (c *Client) RegisterSchema(ctx context.Context, s *Schema) error {
	return c.engine.RegisterSchema(ctx, s)
}

// Schemas lists the registered schema names.
func (c *Client) Schemas() []string { return c.engine.Schemas() }

// CoalesceStats reports the write coalescers' aggregated counters —
// merge rate, flushes by trigger, batch-size histogram. The same numbers
// are exported process-wide on the -pprof endpoint's /debug/vars as
// "datablinder_coalesce".
func (c *Client) CoalesceStats() coalesce.Stats { return c.engine.CoalesceStats() }

// TacticCatalog returns the descriptors of every registered tactic
// (Table 2 of the paper is generated from this).
func (c *Client) TacticCatalog() []TacticDescriptor {
	return c.engine.Registry().Descriptors()
}

// FieldPlan reports which tactic serves each operation of a field, plus
// the field's effective protection class under the weakest-link rule.
func (c *Client) FieldPlan(schema, field string) (ops map[Op]string, aggs map[Agg]string, effective Class, err error) {
	plan, err := c.engine.Plan(schema, field)
	if err != nil {
		return nil, nil, 0, err
	}
	cls, err := c.engine.EffectiveClass(schema, field)
	if err != nil {
		return nil, nil, 0, err
	}
	return plan.ByOp, plan.ByAgg, cls, nil
}

// TacticStats snapshots the live per-tactic per-operation cost counters
// (EWMA latency, sample counts) feeding the planner. The same numbers are
// exported process-wide on /debug/vars as "datablinder_tactics".
func (c *Client) TacticStats() planner.Snapshot { return c.engine.TacticStats() }

// Replan re-evaluates every unpinned sensitive field against the live
// cost model and online re-indexes those whose current plan is beaten by
// at least 30%. It returns the "schema.field" names it migrated. Fields
// pinned via annotation `tactic [...]` are never touched. Nothing calls it
// on a schedule: an embedder that wants one calls it from its own ticker.
func (c *Client) Replan(ctx context.Context) ([]string, error) {
	return c.engine.Replan(ctx)
}

// Migrate re-indexes one field onto the named tactic online: existing
// documents are re-indexed in background batches while reads and writes
// continue, then the plan cuts over atomically. It returns
// core.ErrMigrationActive when the field is already migrating.
func (c *Client) Migrate(ctx context.Context, schema, field, tactic string) error {
	return c.engine.Migrate(ctx, schema, field, tactic)
}

// MigrationsActive lists the "schema.field" names currently mid-migration.
func (c *Client) MigrationsActive() []string { return c.engine.MigrationsActive() }

// Entities returns the data-access handle for one schema (the Entities
// interface).
func (c *Client) Entities(schema string) *Collection {
	return &Collection{engine: c.engine, schema: schema}
}

// Collection is the per-schema data access API.
type Collection struct {
	engine *core.Engine
	schema string
}

// Insert stores a new document and indexes its sensitive fields. With an
// empty doc.ID an id is generated; the stored id is returned.
func (col *Collection) Insert(ctx context.Context, doc *Document) (string, error) {
	return col.engine.Insert(ctx, col.schema, doc)
}

// Get retrieves and decrypts one document by id.
func (col *Collection) Get(ctx context.Context, id string) (*Document, error) {
	return col.engine.Get(ctx, col.schema, id)
}

// Update replaces a document, re-indexing every sensitive field.
func (col *Collection) Update(ctx context.Context, doc *Document) error {
	return col.engine.Update(ctx, col.schema, doc)
}

// Delete removes a document and all its index entries.
func (col *Collection) Delete(ctx context.Context, id string) error {
	return col.engine.Delete(ctx, col.schema, id)
}

// Count returns the number of stored documents.
func (col *Collection) Count(ctx context.Context) (int, error) {
	return col.engine.Count(ctx, col.schema)
}

// SearchIDs evaluates a predicate and returns matching ids, sorted.
// A nil predicate matches everything.
func (col *Collection) SearchIDs(ctx context.Context, p Predicate) ([]string, error) {
	return col.engine.SearchIDs(ctx, col.schema, p)
}

// Search evaluates a predicate and returns decrypted documents.
func (col *Collection) Search(ctx context.Context, p Predicate) ([]*Document, error) {
	return col.engine.Search(ctx, col.schema, p)
}

// Compact runs index maintenance for a hot (field, value) keyword where
// the selected tactic supports it (BIEX 2Lev packing). It changes no
// results, only read efficiency; fields without compactable tactics are a
// no-op.
func (col *Collection) Compact(ctx context.Context, field string, value any) error {
	return col.engine.Compact(ctx, col.schema, field, value)
}

// Aggregate computes an aggregate of field over matching documents
// (nil predicate = all). Sum and average execute homomorphically on the
// cloud (Paillier); count is set cardinality; min/max fall back to
// gateway-side computation.
func (col *Collection) Aggregate(ctx context.Context, field string, agg Agg, where Predicate) (float64, error) {
	return col.engine.Aggregate(ctx, col.schema, field, agg, where)
}
