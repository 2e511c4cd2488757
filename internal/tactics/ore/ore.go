// Package ore implements the ORE tactic: order-revealing encryption for
// range queries (paper Table 2 — protection class 5, Order leakage,
// adapted from the FastORE construction; 3 gateway + 3 cloud interfaces).
//
// Unlike OPE, stored ciphertexts are not ordered numbers: order is only
// revealed through a comparison algorithm. The cloud therefore evaluates
// range predicates by a linear scan with the public Compare function over
// the field column — the storage-friendly but read-heavier end of the
// range-tactic spectrum (the OPE-vs-ORE ablation benchmark contrasts the
// two).
package ore

import (
	"context"
	"fmt"

	"datablinder/internal/cloud/ring"
	cryptoore "datablinder/internal/crypto/ore"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
)

// Name is the tactic's registry name.
const Name = "ORE"

// Service is the cloud RPC service name.
const Service = "ore"

// RPC payloads.
type (
	// AddArgs indexes (ciphertext, doc).
	AddArgs struct {
		Schema string `json:"schema"`
		Field  string `json:"field"`
		CT     []byte `json:"ct"`
		DocID  string `json:"doc_id"`
	}
	// RemoveArgs drops a doc from the column.
	RemoveArgs struct {
		Schema string `json:"schema"`
		Field  string `json:"field"`
		DocID  string `json:"doc_id"`
	}
	// QueryArgs asks for ids whose ciphertext compares within [Lo, Hi].
	QueryArgs struct {
		Schema string `json:"schema"`
		Field  string `json:"field"`
		Lo     []byte `json:"lo,omitempty"`
		Hi     []byte `json:"hi,omitempty"`
		LoInc  bool   `json:"lo_inc"`
		HiInc  bool   `json:"hi_inc"`
	}
	// QueryReply carries matching ids.
	QueryReply struct {
		DocIDs []string `json:"doc_ids"`
	}
)

// Describe returns the tactic's static descriptor.
func Describe() spi.Descriptor {
	return spi.Descriptor{
		Name:      Name,
		Operation: "Range Query",
		Class:     model.Class5,
		Leakage:   model.LeakOrder,
		OpLeakage: []model.OpLeakage{
			{Op: model.OpInsert, Leakage: model.LeakEqualities, Note: "ciphertexts are deterministic; order needs the compare algorithm"},
			{Op: model.OpRange, Leakage: model.LeakOrder, Note: "comparisons reveal order and first differing bit"},
		},
		Ops:               []model.Op{model.OpInsert, model.OpDelete, model.OpRange},
		NumericOnly:       true,
		GatewayInterfaces: []string{"Setup", "Insertion", "RangeQuery"},
		CloudInterfaces:   []string{"Setup", "Insertion", "RangeQuery"},
		Perf: model.PerfMetrics{
			Complexity:          "O(N) compare scan",
			RoundTrips:          1,
			ClientStorage:       "none",
			ServerStorageFactor: 1.5,
			Costs: map[model.Op]model.CostPrior{
				// Encryption is a handful of PRF calls — inserts are cheap.
				// Queries compare against every stored cell, so their cost
				// grows linearly with the corpus.
				model.OpInsert: {Fixed: 40},
				model.OpRange:  {Fixed: 60, PerDoc: 2.0},
				model.OpDelete: {Fixed: 30},
			},
		},
		Challenge: "-",
		Origin:    spi.OriginAdapted,
	}
}

// Tactic is the gateway half.
type Tactic struct {
	binding spi.Binding
	shards  *ring.Ring
}

// New constructs the gateway half.
func New(b spi.Binding) (spi.Tactic, error) {
	return &Tactic{binding: b, shards: ring.Of(b.Cloud)}, nil
}

// route places one document's column cells on a shard. Deletion only knows
// the document id, so the id — not the ciphertext — must be the key.
func (t *Tactic) route(docID string) string {
	return "ore/" + t.binding.Schema + "/" + docID
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

// Descriptor implements spi.Tactic.
func (t *Tactic) Descriptor() spi.Descriptor { return Describe() }

// Setup implements spi.Tactic.
func (t *Tactic) Setup(context.Context) error { return nil }

func (t *Tactic) encrypt(field string, value any) ([]byte, error) {
	var ft model.FieldType
	switch value.(type) {
	case int, int64:
		ft = model.TypeInt
	case float64:
		ft = model.TypeFloat
	default:
		return nil, fmt.Errorf("ore: value %v (%T) is not numeric", value, value)
	}
	u, err := model.OrderedUint64(value, ft)
	if err != nil {
		return nil, err
	}
	k, err := t.binding.Keys.Key(keys.Ref{Schema: t.binding.Schema, Field: field, Tactic: Name, Purpose: "enc"})
	if err != nil {
		return nil, err
	}
	return cryptoore.New(k).EncryptUint64(u), nil
}

// Prepare implements spi.Writer. A delete does not need the old value: the
// cloud index is keyed by document id.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	for _, f := range fields {
		m := spi.Mutation{Route: t.route(docID), Field: f, Service: Service}
		if op == model.OpDelete {
			m.Method, m.Args = "remove", RemoveArgs{Schema: t.binding.Schema, Field: f, DocID: docID}
		} else {
			ct, err := t.encrypt(f, values[f])
			if err != nil {
				return err
			}
			m.Method, m.Args = "add", AddArgs{Schema: t.binding.Schema, Field: f, CT: ct, DocID: docID}
		}
		ws.Add(m)
	}
	return nil
}

// SearchRange implements spi.RangeSearcher.
func (t *Tactic) SearchRange(ctx context.Context, field string, lo, hi any, loInc, hiInc bool) ([]string, error) {
	args := QueryArgs{Schema: t.binding.Schema, Field: field, LoInc: loInc, HiInc: hiInc}
	if lo != nil {
		ct, err := t.encrypt(field, lo)
		if err != nil {
			return nil, err
		}
		args.Lo = ct
	}
	if hi != nil {
		ct, err := t.encrypt(field, hi)
		if err != nil {
			return nil, err
		}
		args.Hi = ct
	}
	// Scatter-gather: each shard compare-scans its slice of the column in
	// doc-id order, so merging the sorted per-shard streams reproduces the
	// single-node result order.
	perShard := make([][]string, t.shards.N())
	err := t.shards.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
		var reply QueryReply
		if err := conn.Call(gctx, Service, "query", args, &reply); err != nil {
			return err
		}
		perShard[shard] = reply.DocIDs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ring.MergeSorted(perShard), nil
}

// SearchEq implements spi.EqSearcher as a degenerate closed range.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	return t.SearchRange(ctx, field, value, value, true, true)
}

// RegisterCloud installs the cloud half on mux, backed by store. The
// column lives in a hash (doc id → ciphertext); queries scan it with the
// public ORE comparison.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	colKey := func(schema, field string) []byte {
		return []byte(fmt.Sprintf("oreidx/%s/%s", schema, field))
	}
	transport.HandleTyped(mux, Service, "add", func(_ context.Context, in *AddArgs) (any, error) {
		return nil, store.HSet(colKey(in.Schema, in.Field), []byte(in.DocID), in.CT)
	})
	transport.HandleTyped(mux, Service, "remove", func(_ context.Context, in *RemoveArgs) (any, error) {
		return nil, store.HDel(colKey(in.Schema, in.Field), []byte(in.DocID))
	})
	transport.HandleTyped(mux, Service, "query", func(_ context.Context, in *QueryArgs) (any, error) {
		key := colKey(in.Schema, in.Field)
		docs, err := store.HFields(key)
		if err != nil {
			return nil, err
		}
		var reply QueryReply
		for _, d := range docs {
			ct, ok, err := store.HGet(key, d)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if in.Lo != nil {
				c, err := cryptoore.Compare(ct, in.Lo)
				if err != nil {
					return nil, err
				}
				if c < 0 || (c == 0 && !in.LoInc) {
					continue
				}
			}
			if in.Hi != nil {
				c, err := cryptoore.Compare(ct, in.Hi)
				if err != nil {
					return nil, err
				}
				if c > 0 || (c == 0 && !in.HiInc) {
					continue
				}
			}
			reply.DocIDs = append(reply.DocIDs, string(d))
		}
		return &reply, nil
	})
}

var (
	_ spi.Writer        = (*Tactic)(nil)
	_ spi.RangeSearcher = (*Tactic)(nil)
	_ spi.EqSearcher    = (*Tactic)(nil)
)
