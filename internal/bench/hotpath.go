// Hot-path experiment: A/B-measures the CPU optimizations behind the
// gateway's crypto pipeline by flipping their global toggles.
//
// Two measurements, both over the loopback transport with no simulated
// network delay (the point is CPU and allocator cost, not round trips):
//
//	sse token  — client-side SSE update-token generation (Mitra update +
//	             EMM append per op) with the derivation caches on vs off;
//	             pure gateway CPU, where the per-keyword key LRUs live
//	insert     — full engine.Insert over the benchmark schema with the
//	             caches on vs off: ns/op, allocs/op, B/op end to end
//	paillier   — private-key Encrypt on a key with a warm randomness pool
//	             vs a key without one (CRT mask computed per call): ns/op
//	             and the resulting speedup
//
// The toggles are primitives.SetHotPathCaching (pooled HMAC states +
// DeriveKey memo) and keycache.SetEnabled (per-keyword/per-field derived-key
// LRUs). The Paillier pool has no toggle: a key either has one or not.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"strings"
	"time"

	"datablinder/internal/cloud"
	"datablinder/internal/coalesce"
	"datablinder/internal/core"
	"datablinder/internal/crypto/keycache"
	"datablinder/internal/crypto/paillier"
	"datablinder/internal/crypto/primitives"
	"datablinder/internal/fhir"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/sse/emm"
	"datablinder/internal/sse/mitra"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// HotpathConfig parameterizes the hot-path experiment.
type HotpathConfig struct {
	// Docs is the number of engine.Insert calls measured per arm.
	Docs int
	// PaillierBits is the key size of the Paillier measurement.
	PaillierBits int
	// PoolSize is the randomness-pool capacity; the warm arm times PoolSize
	// draws per round against a freshly filled pool.
	PoolSize int
	// Rounds is how many fill-then-drain rounds the warm arm averages over.
	Rounds int
	// Seed fixes the synthetic population.
	Seed int64
}

// DefaultHotpathConfig returns a laptop-scale configuration.
func DefaultHotpathConfig() HotpathConfig {
	return HotpathConfig{Docs: 300, PaillierBits: 1024, PoolSize: 64, Rounds: 4, Seed: 1}
}

// HotpathArm is one measured arm of a scenario.
type HotpathArm struct {
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// HotpathResult carries all three measurements plus the derived ratios.
type HotpathResult struct {
	// SSETokenCached / SSETokenUncached are client-side SSE update-token
	// generations with the derivation caches on / off.
	SSETokenCached   HotpathArm `json:"sse_token_cached"`
	SSETokenUncached HotpathArm `json:"sse_token_uncached"`
	// SSEAllocReductionPct is the allocs/op saved by the caches on the SSE
	// token path.
	SSEAllocReductionPct float64 `json:"sse_alloc_reduction_pct"`
	// SSESpeedup is uncached over cached ns/op on the SSE token path.
	SSESpeedup float64 `json:"sse_speedup"`

	// SSEInsertCached / SSEInsertUncached are full-pipeline inserts with the
	// derivation caches on / off.
	SSEInsertCached   HotpathArm `json:"sse_insert_cached"`
	SSEInsertUncached HotpathArm `json:"sse_insert_uncached"`
	// InsertAllocReductionPct is the allocs/op saved by the caches.
	InsertAllocReductionPct float64 `json:"insert_alloc_reduction_pct"`
	// InsertSpeedup is uncached over cached ns/op.
	InsertSpeedup float64 `json:"insert_speedup"`

	// PaillierInline / PaillierPooled are Encrypt on a key without a pool /
	// with a warm one.
	PaillierInline HotpathArm `json:"paillier_inline"`
	PaillierPooled HotpathArm `json:"paillier_pooled"`
	// PaillierSpeedup is inline over pooled ns/op.
	PaillierSpeedup float64 `json:"paillier_speedup"`

	Config HotpathConfig `json:"config"`
	// Meta is stamped by WriteHotpathJSON, not RunHotpath, so in-memory
	// results stay free of machine identity until they are persisted.
	Meta Meta `json:"meta"`
}

// setHotpathToggles flips every toggled hot-path optimization at once.
func setHotpathToggles(on bool) {
	primitives.SetHotPathCaching(on)
	keycache.SetEnabled(on)
}

// hotpathEngine builds a fresh loopback engine with the benchmark schema
// registered. Registration happens AFTER the caller has set the toggles so
// each arm's tactic instances start cold.
func hotpathEngine(ctx context.Context) (*core.Engine, func(), error) {
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		return nil, nil, err
	}
	kp, err := keys.NewRandomStore()
	if err != nil {
		node.Close()
		return nil, nil, err
	}
	local := kvstore.New()
	cleanup := func() {
		node.Close()
		local.Close()
	}
	registry, err := tactics.Registry()
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	// Coalescing off: this experiment isolates gateway CPU per op, and the
	// alloc attribution below assumes each op's RPCs happen inline on the
	// driving goroutine.
	engine, err := core.NewEngine(core.Config{
		Keys: kp, Cloud: transport.NewLoopback(node.Mux), Local: local, Registry: registry,
		Coalesce: coalesce.Options{Disabled: true},
	})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := engine.RegisterSchema(ctx, fhir.BenchmarkSchema()); err != nil {
		cleanup()
		return nil, nil, err
	}
	return engine, cleanup, nil
}

// measureAlloc runs fn once per op on the calling goroutine and attributes
// the process-wide allocation deltas to the ops. The driver is
// single-threaded, so beyond server-side handler work (which both arms pay
// identically) the deltas are the op's own pipeline cost.
func measureAlloc(ops int, fn func(i int) error) (HotpathArm, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if err := fn(i); err != nil {
			return HotpathArm{}, err
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return HotpathArm{
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(ops),
	}, nil
}

// runInsertArm measures cfg.Docs full-pipeline inserts on a fresh engine
// with the hot-path toggles set as requested.
func runInsertArm(ctx context.Context, cfg HotpathConfig, cached bool) (HotpathArm, error) {
	setHotpathToggles(cached)
	engine, cleanup, err := hotpathEngine(ctx)
	if err != nil {
		return HotpathArm{}, err
	}
	defer cleanup()

	gen := fhir.NewGenerator(cfg.Seed, 0, 0)
	schema := fhir.BenchmarkSchema().Name
	// Warm up: a few inserts populate caches (cached arm) and steady-state
	// allocator structures (both arms) before measurement. Document IDs are
	// sequential per generator, so warmup draws come first.
	for i := 0; i < 10; i++ {
		if _, err := engine.Insert(ctx, schema, gen.Observation()); err != nil {
			return HotpathArm{}, fmt.Errorf("bench: warmup insert: %w", err)
		}
	}
	docs := make([]*model.Document, cfg.Docs)
	for i := range docs {
		docs[i] = gen.Observation()
	}
	return measureAlloc(cfg.Docs, func(i int) error {
		_, err := engine.Insert(ctx, schema, docs[i])
		return err
	})
}

// runTokenArm measures cfg.Docs client-side SSE update-token generations
// (one Mitra update token plus one EMM append token per op) over a bounded
// keyword vocabulary — the regime the per-keyword key caches target. No
// transport or server work is involved; this isolates gateway crypto CPU.
func runTokenArm(cfg HotpathConfig, cached bool) (HotpathArm, error) {
	setHotpathToggles(cached)
	var mk, ek primitives.Key
	for i := range mk {
		mk[i] = byte(i + 1)
		ek[i] = byte(i + 101)
	}
	mc := mitra.NewClient(mk, mitra.NewMemState())
	ec := emm.NewClient(ek, emm.NewMemState())
	keywords := make([]string, 32)
	for i := range keywords {
		keywords[i] = fmt.Sprintf("code-%02d", i)
	}
	// Warm up one full vocabulary pass so the cached arm starts hot.
	for i, w := range keywords {
		if _, err := mc.Update("obs", w, mitra.OpAdd, fmt.Sprintf("warm-%d", i)); err != nil {
			return HotpathArm{}, err
		}
		if _, err := ec.Append("obs", w, fmt.Sprintf("warm-%d", i)); err != nil {
			return HotpathArm{}, err
		}
	}
	return measureAlloc(cfg.Docs, func(i int) error {
		w := keywords[i%len(keywords)]
		id := fmt.Sprintf("doc-%08d", i)
		if _, err := mc.Update("obs", w, mitra.OpAdd, id); err != nil {
			return err
		}
		_, err := ec.Append("obs", w, id)
		return err
	})
}

// runPaillierArms measures Encrypt on two keys over the same modulus: one
// without a pool, then one with a warm pool. The warm arm times exactly
// PoolSize draws against a freshly filled pool per round so every measured
// Encrypt takes the pooled path; refills happen outside the timer.
func runPaillierArms(cfg HotpathConfig) (inline, pooled HotpathArm, err error) {
	bare, err := paillier.GenerateKey(cfg.PaillierBits)
	if err != nil {
		return HotpathArm{}, HotpathArm{}, err
	}
	v := big.NewInt(123456)

	if _, err := bare.Encrypt(v); err != nil { // builds the key's mask tables off the clock
		return HotpathArm{}, HotpathArm{}, err
	}
	inlineOps := cfg.Rounds * 8 // ~0.2 ms of table products per op; keep it short
	if inlineOps < 8 {
		inlineOps = 8
	}
	inline, err = measureAlloc(inlineOps, func(int) error {
		_, err := bare.Encrypt(v)
		return err
	})
	if err != nil {
		return HotpathArm{}, HotpathArm{}, err
	}

	sk, err := paillier.NewPrivateKey(bare.P, bare.Q)
	if err != nil {
		return HotpathArm{}, HotpathArm{}, err
	}
	sk.EnableRandPool(cfg.PoolSize)
	var total HotpathArm
	for r := 0; r < cfg.Rounds; r++ {
		if err := sk.FillRandPool(); err != nil {
			return HotpathArm{}, HotpathArm{}, err
		}
		arm, err := measureAlloc(cfg.PoolSize, func(int) error {
			_, err := sk.Encrypt(v)
			return err
		})
		if err != nil {
			return HotpathArm{}, HotpathArm{}, err
		}
		total.Ops += arm.Ops
		total.NsPerOp += arm.NsPerOp
		total.AllocsPerOp += arm.AllocsPerOp
		total.BytesPerOp += arm.BytesPerOp
	}
	total.NsPerOp /= float64(cfg.Rounds)
	total.AllocsPerOp /= float64(cfg.Rounds)
	total.BytesPerOp /= float64(cfg.Rounds)
	return inline, total, nil
}

// RunHotpath executes the full experiment and restores every toggle to its
// default (on) before returning.
func RunHotpath(ctx context.Context, cfg HotpathConfig) (HotpathResult, error) {
	if cfg.Docs <= 0 || cfg.PaillierBits < 256 || cfg.PoolSize <= 0 || cfg.Rounds <= 0 {
		return HotpathResult{}, fmt.Errorf("bench: hotpath config must be positive (PaillierBits >= 256)")
	}
	defer setHotpathToggles(true)

	r := HotpathResult{Config: cfg}
	var err error
	// The Paillier arms go first: the insert arms' engines leave pool
	// fillers running, and a busy second core would be billed to these arms.
	if r.PaillierInline, r.PaillierPooled, err = runPaillierArms(cfg); err != nil {
		return HotpathResult{}, fmt.Errorf("bench: paillier arms: %w", err)
	}
	if r.PaillierPooled.NsPerOp > 0 {
		r.PaillierSpeedup = r.PaillierInline.NsPerOp / r.PaillierPooled.NsPerOp
	}
	if r.SSETokenUncached, err = runTokenArm(cfg, false); err != nil {
		return HotpathResult{}, fmt.Errorf("bench: uncached token arm: %w", err)
	}
	if r.SSETokenCached, err = runTokenArm(cfg, true); err != nil {
		return HotpathResult{}, fmt.Errorf("bench: cached token arm: %w", err)
	}
	if r.SSETokenUncached.AllocsPerOp > 0 {
		r.SSEAllocReductionPct = 100 * (1 - r.SSETokenCached.AllocsPerOp/r.SSETokenUncached.AllocsPerOp)
	}
	if r.SSETokenCached.NsPerOp > 0 {
		r.SSESpeedup = r.SSETokenUncached.NsPerOp / r.SSETokenCached.NsPerOp
	}
	if r.SSEInsertUncached, err = runInsertArm(ctx, cfg, false); err != nil {
		return HotpathResult{}, fmt.Errorf("bench: uncached insert arm: %w", err)
	}
	if r.SSEInsertCached, err = runInsertArm(ctx, cfg, true); err != nil {
		return HotpathResult{}, fmt.Errorf("bench: cached insert arm: %w", err)
	}
	if r.SSEInsertUncached.AllocsPerOp > 0 {
		r.InsertAllocReductionPct = 100 * (1 - r.SSEInsertCached.AllocsPerOp/r.SSEInsertUncached.AllocsPerOp)
	}
	if r.SSEInsertCached.NsPerOp > 0 {
		r.InsertSpeedup = r.SSEInsertUncached.NsPerOp / r.SSEInsertCached.NsPerOp
	}
	return r, nil
}

// WriteHotpathJSON writes the result to path as indented JSON, stamped
// with build/machine provenance.
func WriteHotpathJSON(r HotpathResult, path string) error {
	r.Meta = CollectMeta()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatHotpath renders the experiment as a table.
func FormatHotpath(r HotpathResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hot-path experiment (%d inserts/arm, %d-bit Paillier, pool %d)\n\n",
		r.Config.Docs, r.Config.PaillierBits, r.Config.PoolSize)
	fmt.Fprintf(&b, "%-26s %12s %12s %12s\n", "scenario", "ns/op", "allocs/op", "B/op")
	row := func(name string, a HotpathArm) {
		fmt.Fprintf(&b, "%-26s %12.0f %12.1f %12.0f\n", name, a.NsPerOp, a.AllocsPerOp, a.BytesPerOp)
	}
	row("sse token, caches off", r.SSETokenUncached)
	row("sse token, caches on", r.SSETokenCached)
	row("insert, caches off", r.SSEInsertUncached)
	row("insert, caches on", r.SSEInsertCached)
	row("paillier encrypt, inline", r.PaillierInline)
	row("paillier encrypt, pooled", r.PaillierPooled)
	fmt.Fprintf(&b, "\nsse token: %.1f%% fewer allocs/op, %.2fx faster with caches on\n",
		r.SSEAllocReductionPct, r.SSESpeedup)
	fmt.Fprintf(&b, "insert: %.1f%% fewer allocs/op, %.2fx faster with caches on\n",
		r.InsertAllocReductionPct, r.InsertSpeedup)
	fmt.Fprintf(&b, "paillier: %.0fx faster with a warm randomness pool\n", r.PaillierSpeedup)
	return b.String()
}
