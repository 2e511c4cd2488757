// Package ore implements the ORE tactic: order-revealing encryption for
// range queries (paper Table 2 — protection class 5, Order leakage,
// adapted from the FastORE construction; 3 gateway + 3 cloud interfaces).
//
// Unlike OPE, stored ciphertexts are not ordered numbers: order is only
// revealed through a comparison algorithm. The cloud therefore evaluates
// range predicates by a linear scan with the public Compare function over
// the field column — the storage-friendly but read-heavier end of the
// range-tactic spectrum, where OPE is the read-efficient end.
package ore

import (
	"context"
	"strings"

	"datablinder/internal/cloud/ring"
	cryptoore "datablinder/internal/crypto/ore"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/cell"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

// Name is the tactic's registry name.
const Name = "ORE"

// Service is the cloud RPC service name.
const Service = "ore"

// QueryReply carries the ids of a range query.
type QueryReply struct {
	DocIDs []string
}

func init() {
	cell.Register(Service, "add", "remove")
	transport.RegisterCodec(Service, "query", transport.Codec(cell.AppendRange, cell.ReadRange,
		func(b []byte, out *QueryReply) []byte { return wirefmt.AppendStrings(b, out.DocIDs) },
		func(r *wirefmt.Reader, out *QueryReply) { out.DocIDs = r.Strings() },
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
	spi.Binding
	writer cell.Writer
}

// New constructs the gateway half.
func New(b spi.Binding) (spi.Tactic, error) {
	t := &Tactic{Binding: b}
	// The column is keyed by document id: a delete needs no old value, and
	// the id — not the ciphertext — places a document's cells on a shard.
	t.writer = cell.Writer{
		Service: Service, Put: "add", Column: true,
		Seal:  func(f, _ string, v any) ([]byte, error) { return t.encrypt(f, v) },
		Route: func(_, docID string, _ []byte) string { return "ore/" + t.Schema + "/" + docID },
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
	return cryptoore.New(k).EncryptUint64(u), nil
}

// Prepare implements spi.Tactic.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	return t.writer.Prepare(ws, t.Schema, op, docID, fields, values)
}

// SearchRange implements spi.RangeSearcher.
func (t *Tactic) SearchRange(ctx context.Context, field string, lo, hi any, loInc, hiInc bool) ([]string, error) {
	args, err := cell.NewRange(t.Schema, field, lo, hi, loInc, hiInc, t.encrypt)
	if err != nil {
		return nil, err
	}
	// Scatter-gather: each shard compare-scans its slice of the column in
	// doc-id order, so merging the sorted per-shard streams reproduces the
	// single-node result order.
	perShard := make([][]string, t.Cloud.N())
	err = t.Cloud.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
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
	return ring.Merge(perShard, strings.Compare), nil
}

// SearchEq implements spi.EqSearcher as a degenerate closed range.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	return t.SearchRange(ctx, field, value, value, true, true)
}

// RegisterCloud installs the cloud half on mux, backed by store. The
// column lives in a hash (doc id → ciphertext); queries scan it with the
// public ORE comparison.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	col := cell.Column{Store: store, Prefix: "oreidx"}
	col.Handle(mux, Service, "add")
	transport.HandleTyped(mux, Service, "query", func(_ context.Context, in *cell.Range) (any, error) {
		ids, cts, err := col.Scan(in.Schema, in.Field)
		if err != nil {
			return nil, err
		}
		var reply QueryReply
		for i, ct := range cts {
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
			reply.DocIDs = append(reply.DocIDs, ids[i])
		}
		return &reply, nil
	})
}

var (
	_ spi.RangeSearcher = (*Tactic)(nil)
	_ spi.EqSearcher    = (*Tactic)(nil)
)
