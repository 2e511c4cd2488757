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
	"strings"

	"datablinder/internal/cloud/ring"
	cryptoope "datablinder/internal/crypto/ope"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/cell"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

// Name is the tactic's registry name.
const Name = "OPE"

// Service is the cloud RPC service name.
const Service = "ope"

// QueryReply carries the ids of a range query in ciphertext order. Scores is
// position-aligned with DocIDs and holds each id's order-preserving
// ciphertext: a sharded gateway merges per-shard replies by (score, id) to
// reproduce the single-node result order.
type QueryReply struct {
	DocIDs []string
	Scores [][]byte
}

func init() {
	cell.Register(Service, "add", "remove")
	transport.RegisterCodec(Service, "query", transport.Codec(cell.AppendRange, cell.ReadRange,
		func(b []byte, out *QueryReply) []byte {
			b = wirefmt.AppendStrings(b, out.DocIDs)
			return wirefmt.AppendByteSlices(b, out.Scores)
		},
		func(r *wirefmt.Reader, out *QueryReply) {
			out.DocIDs = r.Strings()
			out.Scores = r.ByteSlices()
		},
	))
}

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
				// The cipher is stateless: encoding is a 64-level PRF walk
				// on the gateway (about 65 HMACs, no round trip), and range
				// queries hit the sorted index directly. The numbers are
				// the priors this tactic has always carried; the planner's
				// recorded choices (tacticsctl plan) are built on them.
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
	spi.Binding
	writer cell.Writer
}

// New constructs the gateway half.
func New(b spi.Binding) (spi.Tactic, error) {
	t := &Tactic{Binding: b}
	// Range queries have no useful single-shard key (any shard may hold
	// in-range ciphertexts), so writes spread by document id and queries
	// scatter-gather. The sorted index is keyed by (ciphertext, id), so a
	// delete re-encrypts the old value to name the entry.
	t.writer = cell.Writer{
		Service: Service, Put: "add",
		Seal:  func(f, _ string, v any) ([]byte, error) { return t.encrypt(f, v) },
		Route: func(_, docID string, _ []byte) string { return "ope/" + t.Schema + "/" + docID },
	}
	return t, nil
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

func (t *Tactic) encrypt(field string, value any) ([]byte, error) {
	ft, err := model.NumericType(value)
	if err != nil {
		return nil, err
	}
	u, err := model.OrderedUint64(value, ft)
	if err != nil {
		return nil, err
	}
	k, err := t.Key(Name, field, "enc")
	if err != nil {
		return nil, err
	}
	return cryptoope.New(k).EncryptUint64(u), nil
}

// Prepare implements spi.Tactic.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	return t.writer.Prepare(ws, t.Schema, op, docID, fields, values)
}

// hit is one result of a shard's range scan.
type hit struct {
	score []byte
	id    string
}

// SearchRange implements spi.RangeSearcher.
func (t *Tactic) SearchRange(ctx context.Context, field string, lo, hi any, loInc, hiInc bool) ([]string, error) {
	args, err := cell.NewRange(t.Schema, field, lo, hi, loInc, hiInc, t.encrypt)
	if err != nil {
		return nil, err
	}
	// Scatter-gather: every shard scans its slice of the sorted index, and
	// the per-shard replies — each ascending by (score, id) — merge into the
	// exact order a single node would have returned.
	perShard := make([][]hit, t.Cloud.N())
	err = t.Cloud.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
		var reply QueryReply
		if err := conn.Call(gctx, Service, "query", args, &reply); err != nil {
			return err
		}
		hits := make([]hit, len(reply.DocIDs))
		for i, id := range reply.DocIDs {
			hits[i] = hit{score: reply.Scores[i], id: id}
		}
		perShard[shard] = hits
		return nil
	})
	if err != nil {
		return nil, err
	}
	hits := ring.Merge(perShard, func(a, b hit) int {
		if c := bytes.Compare(a.score, b.score); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	if len(hits) == 0 {
		return nil, nil
	}
	ids := make([]string, len(hits))
	for i, h := range hits {
		ids[i] = h.id
	}
	return ids, nil
}

// SearchEq implements spi.EqSearcher as a degenerate closed range.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	return t.SearchRange(ctx, field, value, value, true, true)
}

// RegisterCloud installs the cloud half on mux, backed by store.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	idxKey := func(schema, field string) []byte {
		return []byte("opeidx/" + schema + "/" + field)
	}
	transport.HandleTyped(mux, Service, "add", func(_ context.Context, in *cell.Args) (any, error) {
		return nil, store.ZAdd(idxKey(in.Schema, in.Field), in.CT, []byte(in.DocID))
	})
	transport.HandleTyped(mux, Service, "remove", func(_ context.Context, in *cell.Args) (any, error) {
		return nil, store.ZRem(idxKey(in.Schema, in.Field), in.CT, []byte(in.DocID))
	})
	transport.HandleTyped(mux, Service, "query", func(_ context.Context, in *cell.Range) (any, error) {
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
	_ spi.RangeSearcher = (*Tactic)(nil)
	_ spi.EqSearcher    = (*Tactic)(nil)
)
