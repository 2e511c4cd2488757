// Package det implements the DET tactic: deterministic encryption for
// equality search (paper Table 2 — protection class 4, Equalities leakage,
// implemented from scratch).
//
// The gateway deterministically encrypts the field value (SIV mode); the
// cloud keeps a posting list per ciphertext: a hash whose fields are the
// ids of the documents holding that value, each with an empty value.
// Equality search is a single ciphertext lookup — the fastest equality
// tactic and the weakest of the searchable ones (equal plaintexts are
// visible as equal ciphertexts even in a snapshot).
package det

import (
	"context"

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
const Name = "DET"

// Service is the cloud RPC service name.
const Service = "det"

// LookupArgs fetches the id set of a ciphertext; LookupReply carries it.
type (
	LookupArgs struct {
		Schema string
		Field  string
		CT     []byte
	}
	LookupReply struct {
		DocIDs []string
	}
)

func init() {
	cell.Register(Service, "add", "remove")
	transport.RegisterCodec(Service, "lookup", transport.Codec(
		func(b []byte, a *LookupArgs) []byte {
			b = wirefmt.AppendString(b, a.Schema)
			b = wirefmt.AppendString(b, a.Field)
			return wirefmt.AppendBytes(b, a.CT)
		},
		func(r *wirefmt.Reader, a *LookupArgs) {
			a.Schema = r.String()
			a.Field = r.String()
			a.CT = r.Bytes()
		},
		func(b []byte, out *LookupReply) []byte { return wirefmt.AppendStrings(b, out.DocIDs) },
		func(r *wirefmt.Reader, out *LookupReply) { out.DocIDs = r.Strings() },
	))
}

// Describe returns the tactic's static descriptor.
func Describe() spi.Descriptor {
	return spi.Descriptor{
		Name:      Name,
		Operation: "Equality Search",
		Class:     model.Class4,
		Leakage:   model.LeakEqualities,
		OpLeakage: []model.OpLeakage{
			{Op: model.OpInsert, Leakage: model.LeakEqualities, Note: "equal values collide at insert time (snapshot-visible)"},
			{Op: model.OpEquality, Leakage: model.LeakEqualities, Note: "query token equals the stored ciphertext"},
		},
		Ops: []model.Op{model.OpInsert, model.OpEquality},
		GatewayInterfaces: []string{
			"Setup", "Insertion", "DocIDGen", "SecureEnc", "Update",
			"Retrieval", "Deletion", "EqQuery", "EqResolution",
		},
		CloudInterfaces: []string{
			"Setup", "Insertion", "Update", "Retrieval", "Deletion", "EqQuery",
		},
		Perf: model.PerfMetrics{
			Complexity:          "O(1) lookup + O(n_w) result",
			RoundTrips:          1,
			ClientStorage:       "none",
			ServerStorageFactor: 1.2,
			Costs: map[model.Op]model.CostPrior{
				model.OpInsert:   {Fixed: 20},
				model.OpEquality: {Fixed: 30},
				model.OpDelete:   {Fixed: 20},
			},
		},
		Challenge: "-",
		Origin:    spi.OriginImplemented,
	}
}

// Tactic is the gateway half.
type Tactic struct {
	spi.Binding
	ciphers *keycache.Cache[string, *primitives.DET]
	writer  cell.Writer
}

// New constructs the gateway half.
func New(b spi.Binding) (spi.Tactic, error) {
	t := &Tactic{Binding: b, ciphers: keycache.New[string, *primitives.DET](keycache.DefaultSize)}
	// Insert and delete name a cell by its ciphertext, each routed by it.
	t.writer = cell.Writer{
		Service: Service, Put: "add",
		Seal:  func(f, _ string, v any) ([]byte, error) { return t.encrypt(f, v) },
		Route: func(f, _ string, ct []byte) string { return t.route(f, ct) },
	}
	return t, nil
}

// route is the routing key placing one (field, ciphertext) posting set on a
// shard: the deterministic ciphertext is stable across restarts, so insert,
// delete and lookup for one value always land on the same shard.
func (t *Tactic) route(field string, ct []byte) string {
	return "det/" + t.Schema + "/" + field + "/" + string(ct)
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

// cipher returns the per-field deterministic cipher, constructing it at
// most once per field (cipher construction re-runs the AES key schedule).
func (t *Tactic) cipher(field string) (*primitives.DET, error) {
	return t.ciphers.GetOrCompute(field, func() (*primitives.DET, error) {
		enc, err := t.Key(Name, field, "enc")
		if err != nil {
			return nil, err
		}
		mac, err := t.Key(Name, field, "mac")
		if err != nil {
			return nil, err
		}
		return primitives.NewDET(enc, mac)
	})
}

func (t *Tactic) encrypt(field string, value any) ([]byte, error) {
	c, err := t.cipher(field)
	if err != nil {
		return nil, err
	}
	return c.Encrypt([]byte(model.ValueToString(value))), nil
}

// Prepare implements spi.Tactic: one add or remove per field.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	return t.writer.Prepare(ws, t.Schema, op, docID, fields, values)
}

// SearchEq implements spi.EqSearcher.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	ct, err := t.encrypt(field, value)
	if err != nil {
		return nil, err
	}
	var reply LookupReply
	if err := t.Cloud.Call(ctx, t.route(field, ct), Service, "lookup",
		LookupArgs{Schema: t.Schema, Field: field, CT: ct}, &reply); err != nil {
		return nil, err
	}
	return reply.DocIDs, nil
}

// RegisterCloud installs the cloud half on mux, backed by store.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	setKey := func(schema, field string, ct []byte) []byte {
		return append([]byte("detidx/"+schema+"/"+field+"/"), ct...)
	}
	transport.HandleTyped(mux, Service, "add", func(_ context.Context, in *cell.Args) (any, error) {
		return nil, store.HSet(setKey(in.Schema, in.Field, in.CT), []byte(in.DocID), nil)
	})
	transport.HandleTyped(mux, Service, "remove", func(_ context.Context, in *cell.Args) (any, error) {
		return nil, store.HDel(setKey(in.Schema, in.Field, in.CT), []byte(in.DocID))
	})
	transport.HandleTyped(mux, Service, "lookup", func(_ context.Context, in *LookupArgs) (any, error) {
		members, err := store.HFields(setKey(in.Schema, in.Field, in.CT))
		if err != nil {
			return nil, err
		}
		reply := LookupReply{DocIDs: make([]string, len(members))}
		for i, m := range members {
			reply.DocIDs[i] = string(m)
		}
		return &reply, nil
	})
}

var _ spi.EqSearcher = (*Tactic)(nil)
