// Package biex implements the two boolean-search tactics of the paper's
// Table 2 — BIEX-2Lev and BIEX-ZMF (protection class 3, Predicates
// leakage, adapted from the Clusion constructions; challenge: "Storage
// impl. complexity").
//
// Both variants share the gateway logic; they differ in the cross-keyword
// structure (pair multimap vs matryoshka filters), which is also the
// read-efficiency/space trade-off the benchmarks contrast. The tactic
// spans every boolean-annotated field of a schema: one Prepare receives all
// of a document's fields, so cross-field keyword pairs form at insertion
// time, plus single-keyword equality as a degenerate boolean query.
package biex

import (
	"context"
	"sort"
	"strings"
	"sync"

	"datablinder/internal/cloud/ring"
	"datablinder/internal/conc"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	ssebiex "datablinder/internal/sse/biex"
	"datablinder/internal/sse/emm"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
)

// Tactic registry names.
const (
	Name2Lev = "BIEX-2Lev"
	NameZMF  = "BIEX-ZMF"
)

// Service is the cloud RPC service name (both variants share it; payload
// namespaces disambiguate).
const Service = "biex"

// RPC payloads.
type (
	// InsertArgs delivers a client update batch.
	InsertArgs struct {
		Namespace string          `json:"namespace"`
		Entries   ssebiex.Entries `json:"entries"`
	}
	// SearchArgs carries a compiled DNF token.
	SearchArgs struct {
		Namespace string              `json:"namespace"`
		Token     ssebiex.SearchToken `json:"token"`
	}
	// SearchReply returns versioned index ids.
	SearchReply struct {
		IDs []string `json:"ids"`
	}
	// RepackArgs replaces a keyword's global-multimap cells with packed
	// buckets (the 2Lev static build, run as maintenance).
	RepackArgs struct {
		Namespace string      `json:"namespace"`
		Stale     [][]byte    `json:"stale"`
		Entries   []emm.Entry `json:"entries"`
	}
)

func describe(name string, variant ssebiex.Variant) spi.Descriptor {
	perf := model.PerfMetrics{
		Complexity:          "sub-linear: smallest pair list + per-constraint refinement, once per anchor shard",
		RoundTrips:          1,
		ClientStorage:       "EMM counters + per-doc versions",
		ServerStorageFactor: 4.0, // pair multimap dominates
		Costs: map[model.Op]model.CostPrior{
			// Inserts replicate pair cells across the cross-structure;
			// boolean queries resolve from the smallest pair list on each
			// of the anchor's shards. OpInsert and OpBoolean are what the
			// planner's own counters record on three in-process shards: a
			// six-keyword document (prepare plus the flush that carried
			// its cells; EXPERIMENTS.md, "One batch per shard") and a
			// 75-hit two-keyword conjunction over 3 000 documents
			// ("BIEX pair-first conjunctions").
			model.OpInsert:   {Fixed: 430},
			model.OpEquality: {Fixed: 80},
			model.OpBoolean:  {Fixed: 750},
			model.OpDelete:   {Fixed: 120},
		},
	}
	challenge := "Storage impl. complexity"
	if variant == ssebiex.VariantZMF {
		perf.ServerStorageFactor = 1.6
		perf.Complexity = "sub-linear: anchor list + filter probes (bounded false positives)"
		perf.Costs = map[model.Op]model.CostPrior{
			// ZMF trades storage for filter-probe work at both ends: it
			// reads the anchor's whole list and probes seven counters per
			// candidate. OpInsert and OpBoolean are measured like 2Lev's, so
			// the two variants keep the order the measurement gives them
			// (a ZMF insert ships filter updates, not wrapped pair cells).
			model.OpInsert:   {Fixed: 400},
			model.OpEquality: {Fixed: 120},
			model.OpBoolean:  {Fixed: 1900},
			model.OpDelete:   {Fixed: 200},
		}
	}
	return spi.Descriptor{
		Name:      name,
		Operation: "Boolean Search",
		Class:     model.Class3,
		Leakage:   model.LeakPredicates,
		OpLeakage: []model.OpLeakage{
			{Op: model.OpInsert, Leakage: model.LeakStructure, Note: "updates land in fresh PRF-addressed cells"},
			{Op: model.OpEquality, Leakage: model.LeakIdentifiers, Note: "single-keyword query reveals the access pattern"},
			{Op: model.OpBoolean, Leakage: model.LeakPredicates, Note: "query shape and partial intersection sizes leak"},
		},
		Ops: []model.Op{model.OpInsert, model.OpDelete, model.OpEquality, model.OpBoolean},
		GatewayInterfaces: []string{
			"Setup", "Insertion", "DocIDGen", "SecureEnc", "Deletion",
			"BoolQuery", "BoolResolution", "EqQuery",
		},
		CloudInterfaces: []string{
			"Setup", "Insertion", "Deletion", "BoolQuery", "EqQuery",
		},
		Perf:      perf,
		Challenge: challenge,
		Origin:    spi.OriginAdapted,
	}
}

// Tactic is the gateway half of either variant. The index partitions by
// keyword: every cell routes to the ring shard owning its (anchor)
// keyword's current spill-bucket label, with cross-structure state
// replicated so a conjunction resolves entirely on its anchor's bucket
// shards. Inserts, DNF searches, and per-bucket maintenance (Compact)
// all fan out to the owning shards in parallel; hot keywords spread over
// several shards in SpillThreshold-sized bucket slices while the long
// tail — and any conjunction anchored in it — keeps single-shard
// resolution.
type Tactic struct {
	spi.Binding
	client *ssebiex.Client
	ns     string
}

func newTactic(name string, variant ssebiex.Variant) spi.Factory {
	return func(b spi.Binding) (spi.Tactic, error) {
		root, err := b.Key(name, "*", "root")
		if err != nil {
			return nil, err
		}
		client, err := ssebiex.NewClient(root, b.Local, variant)
		if err != nil {
			return nil, err
		}
		// Distinct namespaces keep the two variants' indexes and version
		// counters apart when both serve the same schema.
		return &Tactic{Binding: b, client: client, ns: b.Schema + "|" + string(variant)}, nil
	}
}

// Registration2Lev registers the pair-multimap variant.
func Registration2Lev() spi.Registration {
	return spi.Registration{Descriptor: describe(Name2Lev, ssebiex.Variant2Lev), Factory: newTactic(Name2Lev, ssebiex.Variant2Lev)}
}

// RegistrationZMF registers the matryoshka-filter variant.
func RegistrationZMF() spi.Registration {
	return spi.Registration{Descriptor: describe(NameZMF, ssebiex.VariantZMF), Factory: newTactic(NameZMF, ssebiex.VariantZMF)}
}

// Prepare implements spi.Tactic. For an insert the client groups the
// document's index entries by owning shard, one mutation each; the version
// they carry becomes the live one at commit. A failed write set — whichever
// tactic's batch it was — is compensated the way the engine compensates a
// failed document insert, by superseding, not rolling back: Delete bumps
// the version past the one the surviving batches indexed, so their cells
// resolve to a stale version and drop out at resolution time. Rolling the
// version counter back instead would let a later insert re-issue the same
// versioned id and resurrect the orphaned cells. A delete is that same
// local supersession and ships nothing.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	supersede := func() error { return t.client.Delete(t.ns, docID) }
	if op == model.OpDelete {
		ws.OnCommit(supersede)
		return nil
	}
	kws := make([]string, len(fields))
	for i, f := range fields {
		kws[i] = model.Keyword(f, values[f])
	}
	groups, commit, err := t.client.Prepare(t.ns, docID, kws, t.Cloud.Shard)
	if err != nil {
		return err
	}
	ws.OnCommit(commit)
	ws.OnFailure(supersede)
	targets := make([]int, 0, len(groups))
	for s := range groups {
		targets = append(targets, s)
	}
	sort.Ints(targets)
	for _, s := range targets {
		ws.Add(spi.Mutation{
			Shard: s, Service: Service, Method: "insert",
			Args: InsertArgs{Namespace: t.ns, Entries: *groups[s]},
		})
	}
	return nil
}

// SearchBool implements spi.BoolSearcher.
func (t *Tactic) SearchBool(ctx context.Context, q spi.BoolQuery) ([]string, error) {
	query := make(ssebiex.Query, 0, len(q))
	for _, conj := range q {
		lits := make([]ssebiex.Literal, 0, len(conj))
		for _, l := range conj {
			lits = append(lits, ssebiex.Literal{Keyword: model.Keyword(l.Field, l.Value), Negated: l.Negated})
		}
		query = append(query, lits)
	}
	// The client compiles one token per shard holding a bucket of some
	// conjunction's anchor; the shards resolve in parallel and the union
	// merges here. The query may compile to nothing (every conjunction
	// unsatisfiable).
	toks, err := t.client.Token(t.ns, query, t.Cloud.Shard)
	if err != nil {
		return nil, err
	}
	targets := make([]int, 0, len(toks))
	for s := range toks {
		targets = append(targets, s)
	}
	sort.Ints(targets)
	perShard := make([][]string, len(targets))
	err = conc.ForEach(ctx, len(targets), 0, func(gctx context.Context, i int) error {
		s := targets[i]
		var reply SearchReply
		if err := t.Cloud.Conn(s).Call(gctx, Service, "search",
			SearchArgs{Namespace: t.ns, Token: *toks[s]}, &reply); err != nil {
			return err
		}
		perShard[i] = reply.IDs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t.client.Resolve(t.ns, ring.Merge(perShard, strings.Compare))
}

// SearchEq implements spi.EqSearcher as a single-keyword boolean query.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	return t.SearchBool(ctx, spi.BoolQuery{{{Field: field, Value: value}}})
}

// Compact repacks one keyword's global-multimap lists into 2Lev packed
// buckets: it searches the current cells, drops superseded versions,
// seals the survivors into fixed-capacity buckets, and atomically swaps
// them in cloud-side. Search cost for the keyword drops from one cell
// fetch per update to one per BucketCapacity ids. Run it as maintenance
// on hot keywords (the paper's static 2Lev build, amortized).
//
// Compaction works one spill bucket at a time: each bucket's search and
// repack land on the shard owning that bucket's routing label — the same
// key insertion used to place its cells — so the packed cells stay
// co-located with the bucket's pair replicas and filters. Buckets repack
// in parallel; they share no state.
func (t *Tactic) Compact(ctx context.Context, field string, value any) error {
	w := model.Keyword(field, value)
	buckets, err := t.client.Buckets(t.ns, w)
	if err != nil {
		return err
	}
	return conc.ForEach(ctx, buckets, 0, func(gctx context.Context, b int) error {
		tok, err := t.client.BucketToken(t.ns, w, uint64(b))
		if err != nil {
			return err
		}
		route := t.client.BucketRoute(t.ns, w, uint64(b))
		var reply SearchReply
		if err := t.Cloud.Call(gctx, route, Service, "search",
			SearchArgs{Namespace: t.ns, Token: tok}, &reply); err != nil {
			return err
		}
		live, err := t.client.LiveVersioned(t.ns, reply.IDs)
		if err != nil {
			return err
		}
		entries, stale, err := t.client.RepackGlobal(t.ns, w, uint64(b), live)
		if err != nil {
			return err
		}
		return t.Cloud.Call(gctx, route, Service, "repack",
			RepackArgs{Namespace: t.ns, Stale: stale, Entries: entries}, nil)
	})
}

// RegisterCloud installs the cloud half on mux, backed by store. Both
// variants share the handlers; the namespace in each payload selects the
// index.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	// Server handles are cached per namespace: the ZMF counting filters
	// inside carry a mutex that must serialize concurrent updates.
	var mu sync.Mutex
	servers := make(map[string]*ssebiex.Server)
	server := func(ns string) *ssebiex.Server {
		mu.Lock()
		defer mu.Unlock()
		s, ok := servers[ns]
		if !ok {
			s = ssebiex.NewServer(store, ns)
			servers[ns] = s
		}
		return s
	}
	transport.HandleTyped(mux, Service, "insert", func(_ context.Context, in *InsertArgs) (any, error) {
		return nil, server(in.Namespace).Insert(in.Entries)
	})
	transport.HandleTyped(mux, Service, "search", func(_ context.Context, in *SearchArgs) (any, error) {
		ids, err := server(in.Namespace).Search(in.Token)
		if err != nil {
			return nil, err
		}
		return &SearchReply{IDs: ids}, nil
	})
	transport.HandleTyped(mux, Service, "repack", func(_ context.Context, in *RepackArgs) (any, error) {
		return nil, server(in.Namespace).RepackGlobal(in.Stale, in.Entries)
	})
}

var (
	_ spi.Compactor    = (*Tactic)(nil)
	_ spi.BoolSearcher = (*Tactic)(nil)
	_ spi.EqSearcher   = (*Tactic)(nil)
)
