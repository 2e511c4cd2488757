// Package paillier implements the Sum and Average aggregate tactics over
// the Paillier partially homomorphic cryptosystem (paper Table 2 — no
// protection class or leakage row, because the ciphertext column is never
// searched; challenge: "Key management"; adapted from the Javallier-style
// integration).
//
// Each numeric field value is encrypted under the gateway's Paillier
// key and shipped to the cloud. Aggregation multiplies ciphertexts
// cloud-side (homomorphic addition); only the final sum travels back and
// is decrypted at the gateway, which also divides by the count for
// averages (the AggFunctionResolution interface).
//
// The gateway holds the factors of n, so its decryptions take the half-width
// CRT path and its masks are products from a per-key fixed-base table; the
// cloud holds n only and never exponentiates: a sum is a fold of modular
// multiplications starting from the first ciphertext. DESIGN.md ("Paillier
// key at rest and fast paths") has the argument for why that reply needs no
// re-randomisation.
package paillier

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"sync"

	cryptopaillier "datablinder/internal/crypto/paillier"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/cell"
	"datablinder/internal/transport"
)

// Name is the tactic's registry name.
const Name = "Paillier"

// Service is the cloud RPC service name.
const Service = "agg"

// KeyBits is the Paillier modulus size. 1024 bits keeps the ~50k-call
// benchmark workloads tractable while exercising the full protocol; raise
// to 2048+ for production deployments. The gateway's in-memory mask tables
// grow with the square of it: 4 MiB per key at 1024 bits, 16 MiB at 2048.
const KeyBits = 1024

// randPoolSize is how many precomputed encryption masks the gateway keeps
// ready; inserts draw one mask per encrypted value and a background filler
// tops the pool up once it is under half full, so a burst of up to this many
// inserts pays one modular multiplication each, and a miss pays the ~130
// table multiplications of a mask inline. The cloud has no pool: it never
// encrypts.
const randPoolSize = 128

// ErrStoredKeyFormat reports a private key in the gateway store that is not
// the {p, q} blob this build writes — in particular the retired
// {n, lambda, mu} layout, for which there is deliberately no migration.
var ErrStoredKeyFormat = errors.New("paillier: stored private key is not a {p, q} blob")

// RPC payloads.
type (
	// SetupArgs ships the Paillier public key (modulus) to the cloud.
	SetupArgs struct {
		Schema string
		N      []byte
	}
	// SumArgs requests the homomorphic sum over the given documents.
	SumArgs struct {
		Schema string
		Field  string
		DocIDs []string
	}
	// SumReply returns the encrypted sum and how many ciphertexts
	// contributed (documents lacking the field are skipped). When none
	// did, Count is 0 and CT is empty.
	SumReply struct {
		CT    []byte
		Count int
	}
)

// serializedKey is the gateway-store representation of the private key:
// the two prime factors. Everything else is derived on load by
// cryptopaillier.NewPrivateKey, which also validates them.
type serializedKey struct {
	P []byte `json:"p"`
	Q []byte `json:"q"`
}

// Describe returns the tactic's static descriptor. Class and Leakage are
// zero: Table 2 marks them "-" — the aggregate column is never queried by
// value.
func Describe() spi.Descriptor {
	return spi.Descriptor{
		Name:      Name,
		Operation: "Sum / Average",
		OpLeakage: []model.OpLeakage{
			{Op: model.OpInsert, Leakage: model.LeakStructure, Note: "probabilistic ciphertexts; only column size leaks"},
		},
		Ops:               []model.Op{model.OpInsert, model.OpDelete},
		Aggs:              []model.Agg{model.AggSum, model.AggAvg},
		NumericOnly:       true,
		GatewayInterfaces: []string{"Setup", "Insertion", "AggFunctionResolution"},
		CloudInterfaces:   []string{"Setup", "Insertion", "AggFunction"},
		Perf: model.PerfMetrics{
			Complexity:          "insert: ~2·⌈512/w⌉ modular multiplications from a per-key fixed-base table gateway-side, no exponentiation (precomputed off-path while the pool is warm); aggregate: O(n) modular multiplications cloud-side, no exponentiation, plus one CRT decryption gateway-side",
			RoundTrips:          1,
			ClientStorage:       "Paillier private key",
			ServerStorageFactor: 8.0, // 2048-bit ciphertexts per numeric value
			Costs: map[model.Op]model.CostPrior{
				// The mask dominates: two 64-entry table products modulo p² and
				// q², measured with the encryption around it at 105-200 µs
				// depending on how busy the host is
				// (BenchmarkPaillierEncrypt/inline; BenchmarkMaskCRT is the mask
				// alone).
				model.OpInsert: {Fixed: 150},
				model.OpDelete: {Fixed: 100},
			},
		},
		Challenge: "Key management",
		Origin:    spi.OriginAdapted,
	}
}

// Tactic is the gateway half.
type Tactic struct {
	spi.Binding
	writer cell.Writer

	mu sync.Mutex
	sk *cryptopaillier.PrivateKey
}

// New constructs the gateway half. Call Setup before use.
func New(b spi.Binding) (spi.Tactic, error) {
	t := &Tactic{Binding: b}
	// A document's aggregate ciphertexts route by its id; sums split the id
	// set by the same key and combine per-shard partial sums homomorphically
	// at the gateway — losslessly, since Paillier addition is associative.
	t.writer = cell.Writer{
		Service: Service, Put: "put", Column: true, Seal: t.seal, Route: t.route,
	}
	return t, nil
}

func (t *Tactic) route(_, docID string, _ []byte) string {
	return "agg/" + t.Schema + "/" + docID
}

// Registration couples descriptor and factory for the registry.
func Registration() spi.Registration {
	return spi.Registration{Descriptor: Describe(), Factory: New}
}

func (t *Tactic) skKey() []byte { return []byte("paillierkey/" + t.Schema) }

// Setup implements spi.Provisioner: load or generate the key pair, persist it,
// and register the public key with the cloud. Idempotent.
func (t *Tactic) Setup(ctx context.Context) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sk != nil {
		return nil
	}
	raw, ok, err := t.Local.Get(t.skKey())
	if err != nil {
		return fmt.Errorf("paillier: loading key: %w", err)
	}
	var sk *cryptopaillier.PrivateKey
	if ok {
		var ser serializedKey
		if err := json.Unmarshal(raw, &ser); err != nil {
			return fmt.Errorf("paillier: decoding stored key %q: %w", t.skKey(), err)
		}
		if len(ser.P) == 0 || len(ser.Q) == 0 {
			return fmt.Errorf("%w: key %q", ErrStoredKeyFormat, t.skKey())
		}
		sk, err = cryptopaillier.NewPrivateKey(new(big.Int).SetBytes(ser.P), new(big.Int).SetBytes(ser.Q))
		if err != nil {
			return fmt.Errorf("paillier: stored key %q: %w", t.skKey(), err)
		}
	} else {
		sk, err = cryptopaillier.GenerateKey(KeyBits)
		if err != nil {
			return err
		}
		ser, err := json.Marshal(serializedKey{P: sk.P.Bytes(), Q: sk.Q.Bytes()})
		if err != nil {
			return err
		}
		if err := t.Local.Set(t.skKey(), ser); err != nil {
			return fmt.Errorf("paillier: persisting key: %w", err)
		}
	}
	// Every shard holds a slice of the ciphertext column and computes
	// partial sums, so each needs the public key.
	if err := t.Cloud.Broadcast(ctx, Service, "setup",
		SetupArgs{Schema: t.Schema, N: sk.PublicKey.Bytes()}); err != nil {
		return fmt.Errorf("paillier: registering public key: %w", err)
	}
	sk.EnableRandPool(randPoolSize)
	t.sk = sk
	return nil
}

func (t *Tactic) key() (*cryptopaillier.PrivateKey, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sk == nil {
		return nil, fmt.Errorf("paillier: Setup has not run")
	}
	return t.sk, nil
}

// Prepare implements spi.Tactic: one ciphertext per numeric field on
// insert, one column removal per field on delete.
func (t *Tactic) Prepare(ws *spi.WriteSet, op model.Op, docID string, fields []string, values map[string]any) error {
	if _, err := t.key(); err != nil {
		return err
	}
	return t.writer.Prepare(ws, t.Schema, op, docID, fields, values)
}

// seal encrypts a numeric field value in fixed point.
func (t *Tactic) seal(_, _ string, value any) ([]byte, error) {
	sk, err := t.key()
	if err != nil {
		return nil, err
	}
	ft, err := model.NumericType(value)
	if err != nil {
		return nil, err
	}
	fp, err := model.ToFixedPoint(value, ft)
	if err != nil {
		return nil, err
	}
	ct, err := sk.EncryptInt64(fp)
	if err != nil {
		return nil, err
	}
	return ct.Bytes(), nil
}

// Aggregate implements spi.Aggregator for sum and avg.
func (t *Tactic) Aggregate(ctx context.Context, field string, agg model.Agg, docIDs []string) (float64, error) {
	sk, err := t.key()
	if err != nil {
		return 0, err
	}
	if len(docIDs) == 0 {
		return 0, nil
	}
	if agg != model.AggSum && agg != model.AggAvg {
		return 0, fmt.Errorf("paillier: unsupported aggregate %q", string(agg))
	}
	ct, count, err := t.partialSums(ctx, field, docIDs, sk)
	if err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, nil // no document carries the field: nothing to decrypt
	}
	total, err := sk.DecryptInt64(ct)
	if err != nil {
		return 0, err
	}
	sum := model.FromFixedPoint(total)
	if agg == model.AggAvg {
		sum /= float64(count)
	}
	return sum, nil
}

// partialSums computes the encrypted sum over docIDs and the number of
// documents that contributed; the ciphertext is nil when none did. On a
// sharded ring the id set splits by owning shard, each shard sums its slice
// homomorphically, and the non-empty partial sums combine gateway-side with
// one Paillier addition per shard — the result is bit-for-bit a valid
// encryption of the total, so sharding loses nothing.
func (t *Tactic) partialSums(ctx context.Context, field string, docIDs []string, sk *cryptopaillier.PrivateKey) (*cryptopaillier.Ciphertext, int, error) {
	routes := make([]string, len(docIDs))
	for i, id := range docIDs {
		routes[i] = t.route("", id, nil)
	}
	groups := t.Cloud.Split(routes)
	replies := make([]SumReply, t.Cloud.N())
	err := t.Cloud.Each(ctx, func(gctx context.Context, shard int, conn transport.Conn) error {
		idx := groups[shard]
		if len(idx) == 0 {
			return nil
		}
		sub := make([]string, len(idx))
		for j, i := range idx {
			sub[j] = docIDs[i]
		}
		return conn.Call(gctx, Service, "sum",
			SumArgs{Schema: t.Schema, Field: field, DocIDs: sub}, &replies[shard])
	})
	if err != nil {
		return nil, 0, err
	}
	acc := sk.NewAccumulator()
	count := 0
	for i := range replies {
		if replies[i].Count == 0 {
			continue // shard not asked, or none of its documents carry the field
		}
		if err := acc.Add(replies[i].CT); err != nil {
			return nil, 0, err
		}
		count += replies[i].Count
	}
	return acc.Ciphertext(), count, nil
}

// RegisterCloud installs the cloud half on mux, backed by store.
func RegisterCloud(mux *transport.Mux, store *kvstore.Store) {
	pkKey := func(schema string) []byte { return []byte("aggpk/" + schema) }
	col := cell.Column{Store: store, Prefix: "aggidx"}
	// Parsing a public key recomputes n² and its Montgomery constants, so
	// the parsed key is cached per schema beside the modulus bytes it came
	// from; concurrent sums only read it. setup is the only writer
	// of the stored modulus and replaces the entry under pkMu, so sum never
	// re-reads the store to check the cache is current.
	type cachedKey struct {
		n  []byte
		pk *cryptopaillier.PublicKey
	}
	var pkMu sync.Mutex
	pkCache := make(map[string]cachedKey)
	cachedPK := func(schema string) (*cryptopaillier.PublicKey, error) {
		pkMu.Lock()
		defer pkMu.Unlock()
		if c, ok := pkCache[schema]; ok {
			return c.pk, nil
		}
		// First sum since this process started: the modulus is in the store.
		n, ok, err := store.Get(pkKey(schema))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("paillier: schema %q has no registered public key", schema)
		}
		pk, err := cryptopaillier.PublicKeyFromN(n)
		if err != nil {
			return nil, err
		}
		pkCache[schema] = cachedKey{n: n, pk: pk}
		return pk, nil
	}
	transport.HandleTyped(mux, Service, "setup", func(_ context.Context, in *SetupArgs) (any, error) {
		pkMu.Lock()
		defer pkMu.Unlock()
		if c, ok := pkCache[in.Schema]; ok && bytes.Equal(c.n, in.N) {
			return nil, nil // a gateway re-registering the key this shard already serves
		}
		delete(pkCache, in.Schema)
		return nil, store.Set(pkKey(in.Schema), in.N)
	})
	col.Handle(mux, Service, "put")
	// sum folds the stored ciphertexts with modular multiplications only.
	// It does not start from a fresh Enc(0): the reply goes to the key
	// holder alone, so re-randomising it would protect nothing.
	transport.HandleTyped(mux, Service, "sum", func(_ context.Context, in *SumArgs) (any, error) {
		pk, err := cachedPK(in.Schema)
		if err != nil {
			return nil, err
		}
		cts, err := col.Get(in.Schema, in.Field, in.DocIDs)
		if err != nil {
			return nil, err
		}
		acc := pk.NewAccumulator()
		count := 0
		for _, ct := range cts {
			if ct == nil {
				continue // document lacks this field
			}
			if err := acc.Add(ct); err != nil {
				return nil, err
			}
			count++
		}
		return &SumReply{CT: acc.Bytes(), Count: count}, nil
	})
}

var (
	_ spi.Provisioner = (*Tactic)(nil)
	_ spi.Aggregator  = (*Tactic)(nil)
)
