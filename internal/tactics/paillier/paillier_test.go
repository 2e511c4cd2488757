package paillier_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"datablinder/internal/cloud/ring"
	cryptopaillier "datablinder/internal/crypto/paillier"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/paillier"
	"datablinder/internal/transport"
)

type env struct {
	binding spi.Binding
	cloudKV *kvstore.Store
}

func newEnv(t *testing.T) env {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	paillier.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	return env{
		binding: spi.Binding{Schema: "obs", Keys: kp, Cloud: ring.Of(transport.NewLoopback(mux)), Local: local},
		cloudKV: cloudKV,
	}
}

func instance(t *testing.T, e env) spi.Tactic {
	t.Helper()
	inst, err := paillier.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.(spi.Provisioner).Setup(context.Background()); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return inst
}

func TestSumAndAverage(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	agg := inst.(spi.Aggregator)

	values := map[string]float64{"d1": 6.3, "d2": 5.1, "d3": 7.9}
	var ids []string
	var sum float64
	for id, v := range values {
		if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, id, map[string]any{"value": v}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		sum += v
	}
	got, err := agg.Aggregate(ctx, "value", model.AggSum, ids)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if math.Abs(got-sum) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, sum)
	}
	got, err = agg.Aggregate(ctx, "value", model.AggAvg, ids)
	if err != nil {
		t.Fatalf("avg: %v", err)
	}
	if math.Abs(got-sum/3) > 1e-6 {
		t.Fatalf("avg = %g, want %g", got, sum/3)
	}
}

func TestNegativeAndIntValues(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"v": int64(-50)}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d2", map[string]any{"v": 30}); err != nil {
		t.Fatal(err)
	}
	got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1", "d2"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(-20)) > 1e-6 {
		t.Fatalf("sum = %g, want -20", got)
	}
}

func TestMissingDocsSkipped(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"v": 10.0}); err != nil {
		t.Fatal(err)
	}
	// d2 never inserted: the average must divide by the count of present
	// ciphertexts, not the requested ids.
	got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggAvg, []string{"d1", "d2", "d3"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-6 {
		t.Fatalf("avg with misses = %g, want 10", got)
	}
}

func TestEmptyAggregate(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	got, err := inst.(spi.Aggregator).Aggregate(context.Background(), "v", model.AggSum, nil)
	if err != nil || got != 0 {
		t.Fatalf("empty sum = %g, %v", got, err)
	}
}

func TestDeleteRemovesCiphertext(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"v": 10.0})
	spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d2", map[string]any{"v": 20.0})
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpDelete, "d1", map[string]any{"v": nil}); err != nil {
		t.Fatal(err)
	}
	got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1", "d2"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-20) > 1e-6 {
		t.Fatalf("sum after delete = %g", got)
	}
}

func TestKeyPersistsAcrossInstances(t *testing.T) {
	// A restarted gateway must decrypt sums over ciphertexts produced by
	// the previous instance (the Paillier key is persisted locally).
	e := newEnv(t)
	ctx := context.Background()
	inst1 := instance(t, e)
	if err := spi.Apply(ctx, e.binding.Cloud, inst1, model.OpInsert, "d1", map[string]any{"v": 42.0}); err != nil {
		t.Fatal(err)
	}
	inst2 := instance(t, e)
	got, err := inst2.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-42) > 1e-6 {
		t.Fatalf("sum across restart = %g", got)
	}
}

func TestRejectsNonNumeric(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	if err := spi.Apply(context.Background(), e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"v": "not a number"}); err == nil {
		t.Fatal("string value accepted")
	}
}

func TestSetupRequired(t *testing.T) {
	e := newEnv(t)
	inst, err := paillier.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(context.Background(), e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"v": 1.0}); err == nil {
		t.Fatal("Insert before Setup succeeded")
	}
}

func TestFixedPointPrecision(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	ctx := context.Background()
	// Six decimal places survive the fixed-point encoding.
	spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"v": 0.000001})
	spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d2", map[string]any{"v": 0.000002})
	got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1", "d2"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.000003) > 1e-9 {
		t.Fatalf("precision lost: %g", got)
	}
}

// sumSpy records every agg.sum reply that crosses one shard's connection.
type sumSpy struct {
	transport.Conn
	mu      sync.Mutex
	replies []paillier.SumReply
}

func (s *sumSpy) Call(ctx context.Context, service, method string, args, reply any) error {
	err := s.Conn.Call(ctx, service, method, args, reply)
	if r, ok := reply.(*paillier.SumReply); ok && err == nil && method == "sum" {
		s.mu.Lock()
		s.replies = append(s.replies, *r)
		s.mu.Unlock()
	}
	return err
}

func (s *sumSpy) take() []paillier.SumReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.replies
	s.replies = nil
	return out
}

type shardedEnv struct {
	binding spi.Binding
	stores  []*kvstore.Store
	spies   []*sumSpy
}

// newShardedEnv builds n in-process cloud shards behind loopback
// connections (n == 1 is the unsharded setup) and a persistent Local store.
func newShardedEnv(t *testing.T, n int) *shardedEnv {
	t.Helper()
	e := &shardedEnv{}
	conns := make([]transport.Conn, n)
	for i := range conns {
		mux := transport.NewMux()
		kv := kvstore.New()
		t.Cleanup(func() { kv.Close() })
		paillier.RegisterCloud(mux, kv)
		spy := &sumSpy{Conn: transport.NewLoopback(mux)}
		conns[i] = spy
		e.stores = append(e.stores, kv)
		e.spies = append(e.spies, spy)
	}
	cloud := ring.New(conns, 0)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	e.binding = spi.Binding{Schema: "obs", Keys: kp, Cloud: cloud, Local: local}
	return e
}

// sumReplies drains the replies seen since the last call, over all shards.
func (e *shardedEnv) sumReplies() []paillier.SumReply {
	var out []paillier.SumReply
	for _, s := range e.spies {
		out = append(out, s.take()...)
	}
	return out
}

// stored returns the ciphertext the cloud tier holds for (field, docID).
func (e *shardedEnv) stored(t *testing.T, field, docID string) []byte {
	t.Helper()
	for _, kv := range e.stores {
		raw, ok, err := kv.HGet([]byte("aggidx/obs/"+field), []byte(docID))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return raw
		}
	}
	t.Fatalf("no shard stores %s/%s", field, docID)
	return nil
}

func eachShardCount(t *testing.T, f func(t *testing.T, e *shardedEnv)) {
	for _, n := range []int{1, 3} {
		n := n
		t.Run(fmt.Sprintf("%d-shard", n), func(t *testing.T) { f(t, newShardedEnv(t, n)) })
	}
}

func TestAggregateOverPartialFieldCoverage(t *testing.T) {
	eachShardCount(t, func(t *testing.T, e *shardedEnv) {
		inst := instance(t, env{binding: e.binding})
		ctx := context.Background()
		agg := inst.(spi.Aggregator)
		// Twelve documents; the even ones carry "v", none carries "w".
		var all, with, without []string
		var sum float64
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("doc-%02d", i)
			all = append(all, id)
			if i%2 == 0 {
				v := float64(i) - 3.5
				if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, id, map[string]any{"v": v}); err != nil {
					t.Fatal(err)
				}
				with = append(with, id)
				sum += v
			} else {
				without = append(without, id)
			}
		}
		cases := []struct {
			name     string
			field    string
			ids      []string
			sum, avg float64
		}{
			{"all carry the field", "v", with, sum, sum / 6},
			{"some carry the field", "v", all, sum, sum / 6},
			{"none carries the field", "v", without, 0, 0},
			{"field never written", "w", all, 0, 0},
		}
		for _, c := range cases {
			e.sumReplies()
			got, err := agg.Aggregate(ctx, c.field, model.AggSum, c.ids)
			if err != nil || math.Abs(got-c.sum) > 1e-6 {
				t.Errorf("%s: sum = %g, %v; want %g", c.name, got, err, c.sum)
			}
			got, err = agg.Aggregate(ctx, c.field, model.AggAvg, c.ids)
			if err != nil || math.Abs(got-c.avg) > 1e-6 {
				t.Errorf("%s: avg = %g, %v; want %g", c.name, got, err, c.avg)
			}
			replies := e.sumReplies()
			if len(replies) == 0 {
				t.Errorf("%s: no sum RPC observed", c.name)
			}
			for _, r := range replies {
				// An empty partial carries no ciphertext, so the zero above
				// cannot have come out of a decryption.
				if (r.Count == 0) != (len(r.CT) == 0) {
					t.Errorf("%s: reply has count %d but %d ciphertext bytes", c.name, r.Count, len(r.CT))
				}
				if c.sum == 0 && c.avg == 0 && r.Count != 0 {
					t.Errorf("%s: reply counts %d contributors, want 0", c.name, r.Count)
				}
			}
		}
	})
}

func TestSingleContributorSumIsStoredCiphertext(t *testing.T) {
	eachShardCount(t, func(t *testing.T, e *shardedEnv) {
		inst := instance(t, env{binding: e.binding})
		ctx := context.Background()
		if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "only", map[string]any{"v": -12.25}); err != nil {
			t.Fatal(err)
		}
		ids := []string{"ghost-1", "only", "ghost-2", "ghost-3"}
		got, err := inst.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, ids)
		if err != nil || math.Abs(got-(-12.25)) > 1e-6 {
			t.Fatalf("sum = %g, %v; want -12.25", got, err)
		}
		want := e.stored(t, "v", "only")
		matched := 0
		for _, r := range e.sumReplies() {
			if r.Count == 0 {
				continue
			}
			if r.Count != 1 || !bytes.Equal(r.CT, want) {
				t.Fatalf("one-document partial (count %d) is not the stored ciphertext", r.Count)
			}
			matched++
		}
		if matched != 1 {
			t.Fatalf("%d shards reported a contributor, want 1", matched)
		}
	})
}

func TestRestartReloadsFactorsAndAggregates(t *testing.T) {
	eachShardCount(t, func(t *testing.T, e *shardedEnv) {
		ctx := context.Background()
		before := instance(t, env{binding: e.binding})
		var ids []string
		var sum float64
		for i := 0; i < 9; i++ {
			id := fmt.Sprintf("pre-%d", i)
			v := float64(i*i) - 20
			if err := spi.Apply(ctx, e.binding.Cloud, before, model.OpInsert, id, map[string]any{"v": v}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			sum += v
		}
		// At rest the key is its two factors and nothing else.
		raw, ok, err := e.binding.Local.Get([]byte("paillierkey/obs"))
		if err != nil || !ok {
			t.Fatalf("stored key: ok=%v err=%v", ok, err)
		}
		var blob map[string][]byte
		if err := json.Unmarshal(raw, &blob); err != nil {
			t.Fatal(err)
		}
		if len(blob) != 2 || len(blob["p"]) == 0 || len(blob["q"]) == 0 {
			t.Fatalf("stored key has fields %v, want exactly p and q", keysOf(blob))
		}

		after := instance(t, env{binding: e.binding}) // the restarted gateway
		got, err := after.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, ids)
		if err != nil || math.Abs(got-sum) > 1e-6 {
			t.Fatalf("sum over pre-restart data = %g, %v; want %g", got, err, sum)
		}
		// New inserts under the reloaded key combine with the old ones.
		if err := spi.Apply(ctx, e.binding.Cloud, after, model.OpInsert, "post", map[string]any{"v": 100.5}); err != nil {
			t.Fatal(err)
		}
		got, err = after.(spi.Aggregator).Aggregate(ctx, "v", model.AggAvg, append(ids, "post"))
		if want := (sum + 100.5) / 10; err != nil || math.Abs(got-want) > 1e-6 {
			t.Fatalf("avg across restart = %g, %v; want %g", got, err, want)
		}
	})
}

func keysOf(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestSetupRejectsUnusableStoredKey(t *testing.T) {
	sk, err := cryptopaillier.GenerateKey(256)
	if err != nil {
		t.Fatal(err)
	}
	legacy, _ := json.Marshal(map[string][]byte{"n": sk.N.Bytes(), "lambda": {1, 2, 3}, "mu": {4, 5, 6}})
	twin, _ := json.Marshal(map[string][]byte{"p": sk.P.Bytes(), "q": sk.P.Bytes()})
	cases := []struct {
		name string
		blob []byte
		want error
	}{
		{"retired {n, lambda, mu} layout", legacy, paillier.ErrStoredKeyFormat},
		{"p == q", twin, cryptopaillier.ErrInvalidFactors},
	}
	for _, c := range cases {
		e := newEnv(t)
		if err := e.binding.Local.Set([]byte("paillierkey/obs"), c.blob); err != nil {
			t.Fatal(err)
		}
		inst, err := paillier.New(e.binding)
		if err != nil {
			t.Fatal(err)
		}
		err = inst.(spi.Provisioner).Setup(context.Background())
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Setup = %v, want %v", c.name, err, c.want)
		}
		if err != nil && !strings.Contains(err.Error(), "paillierkey/obs") {
			t.Errorf("%s: error %q does not name the stored key", c.name, err)
		}
		// The unusable blob is left in place for the operator to inspect.
		if got, _, _ := e.binding.Local.Get([]byte("paillierkey/obs")); !bytes.Equal(got, c.blob) {
			t.Errorf("%s: Setup overwrote the stored key", c.name)
		}
	}
}

// TestCloudKeyCacheFollowsSetup pins the cloud-side key cache: a second
// setup with a different modulus must take effect for the next sum.
func TestCloudKeyCacheFollowsSetup(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	first := instance(t, e)
	if err := spi.Apply(ctx, e.binding.Cloud, first, model.OpInsert, "d1", map[string]any{"v": 1.0}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, first, model.OpInsert, "d2", map[string]any{"v": 2.0}); err != nil {
		t.Fatal(err)
	}
	if _, err := first.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1", "d2"}); err != nil {
		t.Fatal(err) // warms the cache with the first key
	}
	// A gateway with an empty Local generates a new key for the same schema.
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	e.binding.Local = local
	second := instance(t, e)
	for id, v := range map[string]float64{"d1": 10, "d2": 20} {
		if err := spi.Apply(ctx, e.binding.Cloud, second, model.OpInsert, id, map[string]any{"v": v}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := second.(spi.Aggregator).Aggregate(ctx, "v", model.AggSum, []string{"d1", "d2"})
	if err != nil || math.Abs(got-30) > 1e-6 {
		t.Fatalf("sum under the re-registered key = %g, %v; want 30", got, err)
	}
}
