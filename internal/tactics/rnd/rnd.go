// Package rnd implements the RND tactic: probabilistic (random-IV)
// encryption, the strongest protection level in the catalog (paper Table 2
// — protection class 1, Structure leakage, implemented from scratch).
//
// Nothing about the value is searchable server-side; the cloud stores an
// opaque AEAD ciphertext per (field, document). Equality search is still
// offered — by exhaustively streaming every ciphertext of the field to the
// gateway and filtering after decryption — which is exactly the
// "Inefficiency" challenge the paper's Table 2 notes for RND.
package rnd

import (
	"context"
	"fmt"

	"datablinder/internal/cloud/ring"
	"datablinder/internal/crypto/keycache"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
)

// Name is the tactic's registry name.
const Name = "RND"

// Service is the cloud RPC service name.
const Service = "rnd"

// RPC payloads.
type (
	// PutArgs stores a ciphertext for (field, doc).
	PutArgs struct {
		Schema string `json:"schema"`
		Field  string `json:"field"`
		DocID  string `json:"doc_id"`
		CT     []byte `json:"ct"`
	}
	// RemoveArgs drops the ciphertext of (field, doc).
	RemoveArgs struct {
		Schema string `json:"schema"`
		Field  string `json:"field"`
		DocID  string `json:"doc_id"`
	}
	// ScanArgs streams every ciphertext of a field.
	ScanArgs struct {
		Schema string `json:"schema"`
		Field  string `json:"field"`
	}
	// ScanItem is one (doc, ciphertext) pair.
	ScanItem struct {
		DocID string `json:"doc_id"`
		CT    []byte `json:"ct"`
	}
	// ScanReply carries the full field column.
	ScanReply struct {
		Items []ScanItem `json:"items"`
	}
)

// Describe returns the tactic's static descriptor.
func Describe() spi.Descriptor {
	return spi.Descriptor{
		Name:      Name,
		Operation: "Equality Search",
		Class:     model.Class1,
		Leakage:   model.LeakStructure,
		OpLeakage: []model.OpLeakage{
			{Op: model.OpInsert, Leakage: model.LeakStructure, Note: "only column size grows"},
			{Op: model.OpEquality, Leakage: model.LeakStructure, Note: "server sees a full-column scan regardless of the predicate"},
		},
		Ops: []model.Op{model.OpInsert, model.OpEquality},
		GatewayInterfaces: []string{
			"Setup", "Insertion", "SecureEnc", "Retrieval", "EqQuery", "EqResolution",
		},
		CloudInterfaces: []string{
			"Setup", "Insertion", "Retrieval", "EqQuery",
		},
		Perf: model.PerfMetrics{
			Complexity:          "O(N) exhaustive scan",
			RoundTrips:          1,
			ClientStorage:       "none",
			ServerStorageFactor: 1.3,
			Costs: map[model.Op]model.CostPrior{
				model.OpInsert:   {Fixed: 5},
				model.OpEquality: {Fixed: 100, PerDoc: 5.0},
				model.OpDelete:   {Fixed: 5},
			},
		},
		Challenge: "Inefficiency",
		Origin:    spi.OriginImplemented,
	}
}

// Tactic is the gateway half.
type Tactic struct {
	binding spi.Binding
	shards  *ring.Ring
	aeads   *keycache.Cache[string, *primitives.AEAD]
}

// New constructs the gateway half.
func New(b spi.Binding) (spi.Tactic, error) {
	return &Tactic{
		binding: b,
		shards:  ring.Of(b.Cloud),
		aeads:   keycache.New[string, *primitives.AEAD](keycache.DefaultSize),
	}, nil
}

// route places one document's ciphertext cells on a shard; the exhaustive
// scan then gathers every shard's slice of the column.
func (t *Tactic) route(docID string) string {
	return "rnd/" + t.binding.Schema + "/" + docID
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

// Descriptor implements spi.Tactic.
func (t *Tactic) Descriptor() spi.Descriptor { return Describe() }

// Setup implements spi.Tactic.
func (t *Tactic) Setup(context.Context) error { return nil }

// aead returns the per-field cipher, constructing it at most once per
// field (construction re-runs the AES key schedule and GCM setup).
func (t *Tactic) aead(field string) (*primitives.AEAD, error) {
	return t.aeads.GetOrCompute(field, func() (*primitives.AEAD, error) {
		k, err := t.binding.Keys.Key(keys.Ref{Schema: t.binding.Schema, Field: field, Tactic: Name, Purpose: "enc"})
		if err != nil {
			return nil, err
		}
		return primitives.NewAEAD(k)
	})
}

// Prepare implements spi.Writer. A delete does not need the old value: the
// cloud column is keyed by document id.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	for _, f := range fields {
		m := spi.Mutation{Route: t.route(docID), Field: f, Service: Service}
		if op == model.OpDelete {
			m.Method, m.Args = "remove", RemoveArgs{Schema: t.binding.Schema, Field: f, DocID: docID}
		} else {
			aead, err := t.aead(f)
			if err != nil {
				return err
			}
			ct, err := aead.Seal([]byte(model.ValueToString(values[f])), []byte(docID))
			if err != nil {
				return err
			}
			m.Method, m.Args = "put", PutArgs{Schema: t.binding.Schema, Field: f, DocID: docID, CT: ct}
		}
		ws.Add(m)
	}
	return nil
}

// SearchEq implements spi.EqSearcher by exhaustive scan + gateway-side
// decryption.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	aead, err := t.aead(field)
	if err != nil {
		return nil, err
	}
	// Exhaustive scan scatter-gathers: each shard streams its slice of the
	// column (already in doc-id order), the slices merge by doc id, and
	// decryption/filtering stays gateway-side as before.
	perShard := make([][]ScanItem, t.shards.N())
	err = t.shards.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
		var reply ScanReply
		if err := conn.Call(gctx, Service, "scan",
			ScanArgs{Schema: t.binding.Schema, Field: field}, &reply); err != nil {
			return err
		}
		perShard[shard] = reply.Items
		return nil
	})
	if err != nil {
		return nil, err
	}
	items := mergeScans(perShard)
	want := model.ValueToString(value)
	var ids []string
	for _, item := range items {
		pt, err := aead.Open(item.CT, []byte(item.DocID))
		if err != nil {
			return nil, fmt.Errorf("rnd: ciphertext for %s failed authentication: %w", item.DocID, err)
		}
		if string(pt) == want {
			ids = append(ids, item.DocID)
		}
	}
	return ids, nil
}

// mergeScans k-way merges per-shard column slices ascending by doc id,
// matching the single-node scan order.
func mergeScans(perShard [][]ScanItem) []ScanItem {
	if len(perShard) == 1 {
		return perShard[0]
	}
	n := 0
	for _, s := range perShard {
		n += len(s)
	}
	out := make([]ScanItem, 0, n)
	pos := make([]int, len(perShard))
	for {
		best := -1
		for i, s := range perShard {
			if pos[i] >= len(s) {
				continue
			}
			if best < 0 || s[pos[i]].DocID < perShard[best][pos[best]].DocID {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, perShard[best][pos[best]])
		pos[best]++
	}
}

// RegisterCloud installs the cloud half on mux, backed by store.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	colKey := func(schema, field string) []byte {
		return []byte(fmt.Sprintf("rndidx/%s/%s", schema, field))
	}
	transport.HandleTyped(mux, Service, "put", func(_ context.Context, in *PutArgs) (any, error) {
		return nil, store.HSet(colKey(in.Schema, in.Field), []byte(in.DocID), in.CT)
	})
	transport.HandleTyped(mux, Service, "remove", func(_ context.Context, in *RemoveArgs) (any, error) {
		return nil, store.HDel(colKey(in.Schema, in.Field), []byte(in.DocID))
	})
	transport.HandleTyped(mux, Service, "scan", func(_ context.Context, in *ScanArgs) (any, error) {
		fields, err := store.HFields(colKey(in.Schema, in.Field))
		if err != nil {
			return nil, err
		}
		reply := ScanReply{Items: make([]ScanItem, 0, len(fields))}
		for _, f := range fields {
			ct, ok, err := store.HGet(colKey(in.Schema, in.Field), f)
			if err != nil {
				return nil, err
			}
			if ok {
				reply.Items = append(reply.Items, ScanItem{DocID: string(f), CT: ct})
			}
		}
		return &reply, nil
	})
}

var (
	_ spi.Writer     = (*Tactic)(nil)
	_ spi.EqSearcher = (*Tactic)(nil)
)
