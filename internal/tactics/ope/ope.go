// Package ope implements the OPE tactic: order-preserving encryption for
// range queries (paper Table 2 — protection class 5, Order leakage,
// adapted construction; 3 gateway + 3 cloud interfaces).
//
// Ciphertexts are order-preserving fixed-width byte strings, so the cloud
// answers range queries with a plain sorted-index scan (a kvstore sorted
// set) — logarithmic seek plus result-size output, the read-efficient end
// of the range-tactic spectrum (contrast with ORE's linear scan).
package ope

import (
	"bytes"
	"context"
	"fmt"

	"datablinder/internal/cloud/ring"
	cryptoope "datablinder/internal/crypto/ope"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
)

// Name is the tactic's registry name.
const Name = "OPE"

// Service is the cloud RPC service name.
const Service = "ope"

// RPC payloads.
type (
	// AddArgs indexes (ciphertext, doc).
	AddArgs struct {
		Schema string `json:"schema"`
		Field  string `json:"field"`
		CT     []byte `json:"ct"`
		DocID  string `json:"doc_id"`
	}
	// RemoveArgs drops (ciphertext, doc).
	RemoveArgs = AddArgs
	// QueryArgs asks for ids with ciphertexts in [Lo, Hi] (nil = open).
	QueryArgs struct {
		Schema string `json:"schema"`
		Field  string `json:"field"`
		Lo     []byte `json:"lo,omitempty"`
		Hi     []byte `json:"hi,omitempty"`
		LoInc  bool   `json:"lo_inc"`
		HiInc  bool   `json:"hi_inc"`
	}
	// QueryReply carries matching ids in ciphertext order. Scores is
	// position-aligned with DocIDs and holds each id's order-preserving
	// ciphertext: a sharded gateway k-way merges per-shard replies by
	// (score, id) to reproduce the single-node result order.
	QueryReply struct {
		DocIDs []string `json:"doc_ids"`
		Scores [][]byte `json:"scores,omitempty"`
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
			{Op: model.OpInsert, Leakage: model.LeakOrder, Note: "ciphertext order equals plaintext order at rest"},
			{Op: model.OpRange, Leakage: model.LeakOrder, Note: "range bounds and result order leak"},
		},
		Ops:               []model.Op{model.OpInsert, model.OpDelete, model.OpRange},
		NumericOnly:       true,
		GatewayInterfaces: []string{"Setup", "Insertion", "RangeQuery"},
		CloudInterfaces:   []string{"Setup", "Insertion", "RangeQuery"},
		Perf: model.PerfMetrics{
			Complexity:          "O(log N + n) sorted-index range scan",
			RoundTrips:          1,
			ClientStorage:       "none",
			ServerStorageFactor: 1.1,
			Costs: map[model.Op]model.CostPrior{
				// Encoding walks the mutable-OPE tree with a round trip
				// per level, so inserts are expensive; range queries hit
				// the sorted index directly and stay cheap at any size.
				model.OpInsert: {Fixed: 900},
				model.OpRange:  {Fixed: 120},
				model.OpDelete: {Fixed: 40},
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

// route places one document's index entries on a shard. Range queries have
// no useful single-shard key (any shard may hold in-range ciphertexts), so
// writes spread by document id and queries scatter-gather.
func (t *Tactic) route(docID string) string {
	return "ope/" + t.binding.Schema + "/" + docID
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

// Descriptor implements spi.Tactic.
func (t *Tactic) Descriptor() spi.Descriptor { return Describe() }

// Setup implements spi.Tactic.
func (t *Tactic) Setup(context.Context) error { return nil }

func (t *Tactic) cipher(field string) (*cryptoope.Cipher, error) {
	k, err := t.binding.Keys.Key(keys.Ref{Schema: t.binding.Schema, Field: field, Tactic: Name, Purpose: "enc"})
	if err != nil {
		return nil, err
	}
	return cryptoope.New(k), nil
}

// fieldType resolves the field's numeric type for order encoding: the
// engine passes int64 for int fields and float64 for float fields; raw Go
// ints may arrive from examples.
func fieldType(value any) (model.FieldType, error) {
	switch value.(type) {
	case int, int64:
		return model.TypeInt, nil
	case float64:
		return model.TypeFloat, nil
	default:
		return "", fmt.Errorf("ope: value %v (%T) is not numeric", value, value)
	}
}

func (t *Tactic) encrypt(field string, value any) ([]byte, error) {
	ft, err := fieldType(value)
	if err != nil {
		return nil, err
	}
	u, err := model.OrderedUint64(value, ft)
	if err != nil {
		return nil, err
	}
	c, err := t.cipher(field)
	if err != nil {
		return nil, err
	}
	return c.EncryptUint64(u), nil
}

// Prepare implements spi.Writer: the sorted index is keyed by (ciphertext,
// id), so a delete re-encrypts the old value to name the entry.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	method := "add"
	if op == model.OpDelete {
		method = "remove"
	}
	for _, f := range fields {
		ct, err := t.encrypt(f, values[f])
		if err != nil {
			return err
		}
		ws.Add(spi.Mutation{
			Route: t.route(docID), Field: f, Service: Service, Method: method,
			Args: AddArgs{Schema: t.binding.Schema, Field: f, CT: ct, DocID: docID},
		})
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
	// Scatter-gather: every shard scans its slice of the sorted index, and
	// the per-shard replies — each ascending by (score, id) — k-way merge
	// into the exact order a single node would have returned.
	replies := make([]QueryReply, t.shards.N())
	err := t.shards.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
		return conn.Call(gctx, Service, "query", args, &replies[shard])
	})
	if err != nil {
		return nil, err
	}
	return mergeByScore(replies), nil
}

// mergeByScore k-way merges per-shard query replies ascending by
// (score, doc id), matching the kvstore sorted-set iteration order.
func mergeByScore(replies []QueryReply) []string {
	n := 0
	for _, r := range replies {
		n += len(r.DocIDs)
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	pos := make([]int, len(replies))
	for {
		best := -1
		for i, r := range replies {
			p := pos[i]
			if p >= len(r.DocIDs) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := replies[best]
			if c := bytes.Compare(r.Scores[p], b.Scores[pos[best]]); c < 0 ||
				(c == 0 && r.DocIDs[p] < b.DocIDs[pos[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, replies[best].DocIDs[pos[best]])
		pos[best]++
	}
}

// SearchEq implements spi.EqSearcher as a degenerate closed range.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	return t.SearchRange(ctx, field, value, value, true, true)
}

// RegisterCloud installs the cloud half on mux, backed by store.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	idxKey := func(schema, field string) []byte {
		return []byte(fmt.Sprintf("opeidx/%s/%s", schema, field))
	}
	transport.HandleTyped(mux, Service, "add", func(_ context.Context, in *AddArgs) (any, error) {
		return nil, store.ZAdd(idxKey(in.Schema, in.Field), in.CT, []byte(in.DocID))
	})
	transport.HandleTyped(mux, Service, "remove", func(_ context.Context, in *RemoveArgs) (any, error) {
		return nil, store.ZRem(idxKey(in.Schema, in.Field), in.CT, []byte(in.DocID))
	})
	transport.HandleTyped(mux, Service, "query", func(_ context.Context, in *QueryArgs) (any, error) {
		pairs, err := store.ZRangeByScore(idxKey(in.Schema, in.Field), in.Lo, in.Hi, in.LoInc, in.HiInc)
		if err != nil {
			return nil, err
		}
		reply := QueryReply{
			DocIDs: make([]string, len(pairs)),
			Scores: make([][]byte, len(pairs)),
		}
		for i, p := range pairs {
			reply.DocIDs[i] = string(p.Member)
			reply.Scores[i] = p.Score
		}
		return &reply, nil
	})
}

var (
	_ spi.Writer        = (*Tactic)(nil)
	_ spi.RangeSearcher = (*Tactic)(nil)
	_ spi.EqSearcher    = (*Tactic)(nil)
)
