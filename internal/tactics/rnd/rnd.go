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
	"strings"

	"datablinder/internal/cloud/ring"
	"datablinder/internal/crypto/keycache"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/cell"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

// Name is the tactic's registry name.
const Name = "RND"

// Service is the cloud RPC service name.
const Service = "rnd"

// ScanArgs streams every ciphertext of a field; the reply is the column.
type (
	ScanArgs struct {
		Schema string
		Field  string
	}
	ScanItem struct {
		DocID string
		CT    []byte
	}
	ScanReply struct {
		Items []ScanItem
	}
)

func init() {
	cell.Register(Service, "put", "remove")
	transport.RegisterCodec(Service, "scan", transport.Codec(
		func(b []byte, a *ScanArgs) []byte {
			b = wirefmt.AppendString(b, a.Schema)
			return wirefmt.AppendString(b, a.Field)
		},
		func(r *wirefmt.Reader, a *ScanArgs) {
			a.Schema = r.String()
			a.Field = r.String()
		},
		func(b []byte, out *ScanReply) []byte {
			b = wirefmt.AppendUvarint(b, uint64(len(out.Items)))
			for _, it := range out.Items {
				b = wirefmt.AppendString(b, it.DocID)
				b = wirefmt.AppendBytes(b, it.CT)
			}
			return b
		},
		func(r *wirefmt.Reader, out *ScanReply) {
			n := r.Count()
			if n == 0 {
				return
			}
			out.Items = make([]ScanItem, n)
			for i := range out.Items {
				out.Items[i].DocID = r.String()
				out.Items[i].CT = r.Bytes()
			}
		},
	))
}

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
	spi.Binding
	aeads  *keycache.Cache[string, *primitives.AEAD]
	writer cell.Writer
}

// New constructs the gateway half.
func New(b spi.Binding) (spi.Tactic, error) {
	t := &Tactic{Binding: b, aeads: keycache.New[string, *primitives.AEAD](keycache.DefaultSize)}
	// The cloud column is keyed by document id, so a delete does not need
	// the old value. The exhaustive scan gathers every shard's slice.
	t.writer = cell.Writer{
		Service: Service, Put: "put", Column: true, Seal: t.seal,
		Route: func(_, docID string, _ []byte) string { return "rnd/" + t.Schema + "/" + docID },
	}
	return t, nil
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

// aead returns the per-field cipher, constructing it at most once per
// field (construction re-runs the AES key schedule and GCM setup).
func (t *Tactic) aead(field string) (*primitives.AEAD, error) {
	return t.aeads.GetOrCompute(field, func() (*primitives.AEAD, error) {
		k, err := t.Key(Name, field, "enc")
		if err != nil {
			return nil, err
		}
		return primitives.NewAEAD(k)
	})
}

// seal encrypts a value bound to its document id.
func (t *Tactic) seal(field, docID string, value any) ([]byte, error) {
	aead, err := t.aead(field)
	if err != nil {
		return nil, err
	}
	return aead.Seal([]byte(model.ValueToString(value)), []byte(docID))
}

// Prepare implements spi.Tactic.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	return t.writer.Prepare(ws, t.Schema, op, docID, fields, values)
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
	// decryption/filtering stays gateway-side.
	perShard := make([][]ScanItem, t.Cloud.N())
	err = t.Cloud.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
		var reply ScanReply
		if err := conn.Call(gctx, Service, "scan", ScanArgs{Schema: t.Schema, Field: field}, &reply); err != nil {
			return err
		}
		perShard[shard] = reply.Items
		return nil
	})
	if err != nil {
		return nil, err
	}
	items := ring.Merge(perShard, func(a, b ScanItem) int { return strings.Compare(a.DocID, b.DocID) })
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

// RegisterCloud installs the cloud half on mux, backed by store.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	col := cell.Column{Store: store, Prefix: "rndidx"}
	col.Handle(mux, Service, "put")
	transport.HandleTyped(mux, Service, "scan", func(_ context.Context, in *ScanArgs) (any, error) {
		ids, cts, err := col.Scan(in.Schema, in.Field)
		if err != nil {
			return nil, err
		}
		reply := ScanReply{Items: make([]ScanItem, len(ids))}
		for i, id := range ids {
			reply.Items[i] = ScanItem{DocID: id, CT: cts[i]}
		}
		return &reply, nil
	})
}

var _ spi.EqSearcher = (*Tactic)(nil)
