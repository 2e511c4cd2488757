// Package mitra implements the Mitra tactic: forward- and backward-private
// dynamic SSE for equality search (paper Table 2 — protection class 2,
// Identifiers leakage, implemented from scratch; challenge: "Local
// storage", because the gateway keeps a counter per keyword).
package mitra

import (
	"context"

	"datablinder/internal/model"
	"datablinder/internal/spi"
	ssemitra "datablinder/internal/sse/mitra"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
)

// Name is the tactic's registry name.
const Name = "Mitra"

// Service is the cloud RPC service name.
const Service = "mitra"

// RPC payloads.
type (
	// InsertArgs delivers encrypted update cells.
	InsertArgs struct {
		Schema  string           `json:"schema"`
		Entries []ssemitra.Entry `json:"entries"`
	}
	// SearchArgs carries the per-update cell addresses.
	SearchArgs struct {
		Schema string   `json:"schema"`
		Addrs  [][]byte `json:"addrs"`
	}
	// SearchReply returns the cells, position-aligned (nil for misses).
	SearchReply struct {
		Vals [][]byte `json:"vals"`
	}
)

// Describe returns the tactic's static descriptor.
func Describe() spi.Descriptor {
	return spi.Descriptor{
		Name:      Name,
		Operation: "Equality Search",
		Class:     model.Class2,
		Leakage:   model.LeakIdentifiers,
		OpLeakage: []model.OpLeakage{
			{Op: model.OpInsert, Leakage: model.LeakStructure, Note: "forward private: updates are unlinkable to past queries"},
			{Op: model.OpDelete, Leakage: model.LeakStructure, Note: "backward private: deletions are indistinguishable from additions"},
			{Op: model.OpEquality, Leakage: model.LeakIdentifiers, Note: "search reveals the access pattern of matching cells"},
		},
		Ops: []model.Op{model.OpInsert, model.OpDelete, model.OpEquality},
		GatewayInterfaces: []string{
			"Setup", "Insertion", "DocIDGen", "SecureEnc", "Deletion", "EqQuery", "EqResolution",
		},
		CloudInterfaces: []string{
			"Setup", "Insertion", "Deletion", "Retrieval", "EqQuery",
		},
		Perf: model.PerfMetrics{
			Complexity:          "O(u_w) per search (all updates of the keyword)",
			RoundTrips:          1,
			ClientStorage:       "one counter per keyword",
			ServerStorageFactor: 2.5,
			Costs: map[model.Op]model.CostPrior{
				// Searches replay the keyword's whole update history, so
				// query cost tracks corpus growth.
				model.OpInsert:   {Fixed: 30},
				model.OpEquality: {Fixed: 50, PerDoc: 0.2},
				model.OpDelete:   {Fixed: 30},
			},
		},
		Challenge: "Local storage",
		Origin:    spi.OriginImplemented,
	}
}

// Tactic is the gateway half.
type Tactic struct {
	spi.Binding
	client *ssemitra.Client
}

// New constructs the gateway half; keyword counters persist in the
// gateway's local store.
func New(b spi.Binding) (spi.Tactic, error) {
	key, err := b.Key(Name, "*", "root")
	if err != nil {
		return nil, err
	}
	return &Tactic{Binding: b, client: ssemitra.NewClient(key, b.Local)}, nil
}

// route places one keyword's update cells on a shard. The keyword is known
// at both insert and search time (the gateway derives cell addresses from
// it), so a keyword's whole posting structure co-locates on one node.
func (t *Tactic) route(w string) string {
	return "mitra/" + t.Schema + "/" + w
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

// Prepare implements spi.Tactic. Deletions are update cells like additions
// (backward privacy), so both directions reserve the keyword's next counter
// and ship one cell.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	cell := ssemitra.OpAdd
	if op == model.OpDelete {
		cell = ssemitra.OpDel
	}
	for _, f := range fields {
		w := model.Keyword(f, values[f])
		e, err := t.client.Update(t.Schema, w, cell, docID)
		if err != nil {
			return err
		}
		ws.Add(spi.Mutation{
			Route: t.route(w), Field: f, Service: Service, Method: "insert",
			Args: InsertArgs{Schema: t.Schema, Entries: []ssemitra.Entry{e}},
		})
	}
	return nil
}

// SearchEq implements spi.EqSearcher.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	w := model.Keyword(field, value)
	req, err := t.client.SearchRequest(t.Schema, w)
	if err != nil {
		return nil, err
	}
	if len(req.Addrs) == 0 {
		return nil, nil
	}
	var reply SearchReply
	if err := t.Cloud.Call(ctx, t.route(w), Service, "search",
		SearchArgs{Schema: t.Schema, Addrs: req.Addrs}, &reply); err != nil {
		return nil, err
	}
	return t.client.Resolve(t.Schema, w, reply.Vals)
}

// RegisterCloud installs the cloud half on mux, backed by store.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	transport.HandleTyped(mux, Service, "insert", func(_ context.Context, in *InsertArgs) (any, error) {
		return nil, ssemitra.NewServer(store, in.Schema).Insert(in.Entries)
	})
	transport.HandleTyped(mux, Service, "search", func(_ context.Context, in *SearchArgs) (any, error) {
		vals, err := ssemitra.NewServer(store, in.Schema).Search(ssemitra.SearchRequest{Addrs: in.Addrs})
		if err != nil {
			return nil, err
		}
		return &SearchReply{Vals: vals}, nil
	})
}

var _ spi.EqSearcher = (*Tactic)(nil)
