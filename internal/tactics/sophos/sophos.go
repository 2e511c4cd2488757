// Package sophos implements the Sophos tactic: forward-private SSE for
// equality search (paper Table 2 — protection class 2, Identifiers
// leakage, implemented from scratch; challenge: "Key management", because
// the gateway must hold and persist the RSA trapdoor alongside per-keyword
// chain state).
//
// The underlying scheme (Bost's Σoφoς) has no native deletion; this tactic
// layers exact deletion over it with per-(field, document) versioned index
// ids, resolved at the gateway.
package sophos

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"datablinder/internal/model"
	"datablinder/internal/spi"
	ssesophos "datablinder/internal/sse/sophos"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

// Name is the tactic's registry name.
const Name = "Sophos"

// Service is the cloud RPC service name.
const Service = "sophos"

// RPC payloads.
type (
	// SetupArgs ships the TDP public key to the cloud.
	SetupArgs struct {
		Schema string              `json:"schema"`
		PK     ssesophos.PublicKey `json:"pk"`
	}
	// InsertArgs delivers encrypted update cells.
	InsertArgs struct {
		Schema  string            `json:"schema"`
		Entries []ssesophos.Entry `json:"entries"`
	}
	// SearchArgs carries the newest-state search token.
	SearchArgs struct {
		Schema string                `json:"schema"`
		Token  ssesophos.SearchToken `json:"token"`
	}
	// SearchReply returns the (versioned) index ids.
	SearchReply struct {
		IDs []string `json:"ids"`
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
			{Op: model.OpInsert, Leakage: model.LeakStructure, Note: "forward private via trapdoor-permutation state chains"},
			{Op: model.OpEquality, Leakage: model.LeakIdentifiers, Note: "search reveals the access pattern; the server can replay past states forward"},
		},
		Ops: []model.Op{model.OpInsert, model.OpDelete, model.OpEquality},
		GatewayInterfaces: []string{
			"Setup", "Insertion", "DocIDGen", "SecureEnc", "EqQuery", "EqResolution",
		},
		CloudInterfaces: []string{
			"Setup", "Insertion", "Retrieval", "EqQuery",
		},
		Perf: model.PerfMetrics{
			Complexity:          "O(u_w) RSA evaluations per search",
			RoundTrips:          1,
			ClientStorage:       "TDP private key + (state, counter) per keyword",
			ServerStorageFactor: 2.0,
			Costs: map[model.Op]model.CostPrior{
				// Every insert evaluates the RSA trapdoor permutation, and
				// searches replay the chain per update.
				model.OpInsert:   {Fixed: 400},
				model.OpEquality: {Fixed: 200, PerDoc: 0.2},
				model.OpDelete:   {Fixed: 400},
			},
		},
		Challenge: "Key management",
		Origin:    spi.OriginImplemented,
	}
}

// Tactic is the gateway half.
type Tactic struct {
	spi.Binding

	mu     sync.Mutex
	client *ssesophos.Client // built by Setup
}

// New constructs the gateway half. Call Setup before use.
func New(b spi.Binding) (spi.Tactic, error) {
	return &Tactic{Binding: b}, nil
}

// route places one keyword's state chain on a shard: insert and search both
// derive from the keyword, so the whole chain co-locates.
func (t *Tactic) route(w string) string {
	return "sophos/" + t.Schema + "/" + w
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

func (t *Tactic) tdpKey() []byte {
	return []byte("sophostdp/" + t.Schema)
}

// Setup implements spi.Provisioner: it loads or generates the RSA trapdoor,
// persists it in the gateway store, and registers the public key with the
// cloud half. Setup is idempotent.
func (t *Tactic) Setup(ctx context.Context) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.client != nil {
		return nil
	}
	root, err := t.Key(Name, "*", "root")
	if err != nil {
		return err
	}
	raw, ok, err := t.Local.Get(t.tdpKey())
	if err != nil {
		return fmt.Errorf("sophos: loading TDP: %w", err)
	}
	var client *ssesophos.Client
	if ok {
		pk, err := x509.ParsePKCS1PrivateKey(raw)
		if err != nil {
			return fmt.Errorf("sophos: parsing stored TDP: %w", err)
		}
		client, err = ssesophos.NewClientWithTDP(root, t.Local, pk)
		if err != nil {
			return err
		}
	} else {
		client, err = ssesophos.NewClient(root, t.Local)
		if err != nil {
			return err
		}
		if err := t.Local.Set(t.tdpKey(), x509.MarshalPKCS1PrivateKey(client.TDP())); err != nil {
			return fmt.Errorf("sophos: persisting TDP: %w", err)
		}
	}
	// Every shard must hold the public key: keyword chains are spread
	// across the ring, and each node verifies/extends its own chains.
	if err := t.Cloud.Broadcast(ctx, Service, "setup",
		SetupArgs{Schema: t.Schema, PK: client.PublicKey()}); err != nil {
		return fmt.Errorf("sophos: registering public key: %w", err)
	}
	t.client = client
	return nil
}

func (t *Tactic) getClient() (*ssesophos.Client, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.client == nil {
		return nil, fmt.Errorf("sophos: Setup has not run")
	}
	return t.client, nil
}

// version management: per-(field, doc) monotone counters implementing
// deletion over a forward-only scheme.

func (t *Tactic) verKey(field, docID string) []byte {
	return []byte("sophosver/" + t.Schema + "/" + field + "\x00" + docID)
}

func (t *Tactic) version(field, docID string) (uint64, error) {
	raw, ok, err := t.Local.Get(t.verKey(field, docID))
	if err != nil || !ok {
		return 0, err
	}
	return strconv.ParseUint(string(raw), 10, 64)
}

func (t *Tactic) setVersion(field, docID string, v uint64) error {
	return t.Local.Set(t.verKey(field, docID), []byte(strconv.FormatUint(v, 10)))
}

// Prepare implements spi.Tactic. An insert extends the keyword's chain with
// a cell for the document's next version; a delete ships nothing — it
// supersedes the current version, and stale cells resolve to dropped
// versions at the gateway. Either way the version moves at commit, so a
// prepared write that never ships leaves the live version searchable.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	client, err := t.getClient()
	if err != nil {
		return err
	}
	for _, f := range fields {
		v, err := t.version(f, docID)
		if err != nil {
			return err
		}
		if op == model.OpDelete && v == 0 {
			continue // never indexed
		}
		v++
		ws.OnCommit(func() error { return t.setVersion(f, docID, v) })
		if op == model.OpDelete {
			continue
		}
		w := model.Keyword(f, values[f])
		e, err := client.Insert(t.Schema, w, docID+"#"+strconv.FormatUint(v, 10))
		if err != nil {
			return err
		}
		ws.Add(spi.Mutation{
			Route: t.route(w), Field: f, Service: Service, Method: "insert",
			Args: InsertArgs{Schema: t.Schema, Entries: []ssesophos.Entry{e}},
		})
	}
	return nil
}

// SearchEq implements spi.EqSearcher.
func (t *Tactic) SearchEq(ctx context.Context, field string, value any) ([]string, error) {
	client, err := t.getClient()
	if err != nil {
		return nil, err
	}
	w := model.Keyword(field, value)
	tok, ok, err := client.Token(t.Schema, w)
	if err != nil || !ok {
		return nil, err
	}
	var reply SearchReply
	if err := t.Cloud.Call(ctx, t.route(w), Service, "search",
		SearchArgs{Schema: t.Schema, Token: tok}, &reply); err != nil {
		return nil, err
	}
	var out []string
	seen := make(map[string]bool)
	for _, vid := range reply.IDs {
		i := strings.LastIndexByte(vid, '#')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseUint(vid[i+1:], 10, 64)
		if err != nil {
			continue
		}
		docID := vid[:i]
		cur, err := t.version(field, docID)
		if err != nil {
			return nil, err
		}
		if v == cur && !seen[docID] {
			seen[docID] = true
			out = append(out, docID)
		}
	}
	return out, nil
}

// ErrStoredKeyFormat reports a public key in the cloud store that is not the
// {n, e} record this build writes — in particular the JSON blob earlier
// builds stored, for which there is deliberately no migration: the blob is
// left as it is, and the gateway's next setup replaces it.
var ErrStoredKeyFormat = errors.New("sophos: stored public key is not an {n, e} record")

// parsePK decodes a stored public key.
func parsePK(raw []byte) (ssesophos.PublicKey, error) {
	r := wirefmt.NewReader(raw)
	pk := readPK(r)
	if r.Finish() != nil || len(pk.N) == 0 || pk.E < 3 {
		return ssesophos.PublicKey{}, ErrStoredKeyFormat
	}
	return pk, nil
}

// RegisterCloud installs the cloud half on mux, backed by store. The TDP
// public key arrives via the setup call and persists in the store.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	pkKey := func(schema string) []byte { return []byte("sophospk/" + schema) }
	// The parsed key is cached per schema. setup is the only writer of the
	// stored key and drops the entry under pkMu, so insert and search never
	// re-read the store to check the cache is current.
	var pkMu sync.Mutex
	pkCache := make(map[string]ssesophos.PublicKey)
	loadPK := func(schema string) (ssesophos.PublicKey, error) {
		pkMu.Lock()
		defer pkMu.Unlock()
		if pk, ok := pkCache[schema]; ok {
			return pk, nil
		}
		raw, ok, err := store.Get(pkKey(schema))
		if err != nil {
			return ssesophos.PublicKey{}, err
		}
		if !ok {
			return ssesophos.PublicKey{}, fmt.Errorf("sophos: schema %q has no registered public key", schema)
		}
		pk, err := parsePK(raw)
		if err != nil {
			return ssesophos.PublicKey{}, fmt.Errorf("%w: key %q", err, pkKey(schema))
		}
		pkCache[schema] = pk
		return pk, nil
	}
	transport.HandleTyped(mux, Service, "setup", func(_ context.Context, in *SetupArgs) (any, error) {
		pkMu.Lock()
		defer pkMu.Unlock()
		delete(pkCache, in.Schema)
		return nil, store.Set(pkKey(in.Schema), appendPK(nil, in.PK))
	})
	transport.HandleTyped(mux, Service, "insert", func(_ context.Context, in *InsertArgs) (any, error) {
		pk, err := loadPK(in.Schema)
		if err != nil {
			return nil, err
		}
		return nil, ssesophos.NewServer(store, in.Schema, pk).Insert(in.Entries)
	})
	transport.HandleTyped(mux, Service, "search", func(_ context.Context, in *SearchArgs) (any, error) {
		pk, err := loadPK(in.Schema)
		if err != nil {
			return nil, err
		}
		ids, err := ssesophos.NewServer(store, in.Schema, pk).Search(in.Token)
		if err != nil {
			return nil, err
		}
		return &SearchReply{IDs: ids}, nil
	})
}

var (
	_ spi.Provisioner = (*Tactic)(nil)
	_ spi.EqSearcher  = (*Tactic)(nil)
)
