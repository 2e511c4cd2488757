package rnd_test

import (
	"context"
	"datablinder/internal/cloud/ring"
	"strings"
	"testing"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/rnd"
	"datablinder/internal/transport"
)

func setup(t *testing.T) (spi.Tactic, *ring.Ring, *kvstore.Store) {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	rnd.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	conn := ring.Of(transport.NewLoopback(mux))
	inst, err := rnd.New(spi.Binding{Schema: "obs", Keys: kp, Cloud: conn, Local: kvstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	return inst, conn, cloudKV
}

func TestProbabilisticCiphertexts(t *testing.T) {
	// Two documents with the same value must produce distinct ciphertexts
	// in the cloud column (no equality leakage — that is RND's point).
	inst, conn, cloudKV := setup(t)
	ctx := context.Background()
	if err := spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"performer": "john-smith"}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, conn, inst, model.OpInsert, "d2", map[string]any{"performer": "john-smith"}); err != nil {
		t.Fatal(err)
	}
	col := []byte("rndidx/obs/performer")
	c1, ok1, _ := cloudKV.HGet(col, []byte("d1"))
	c2, ok2, _ := cloudKV.HGet(col, []byte("d2"))
	if !ok1 || !ok2 {
		t.Fatal("ciphertexts not stored")
	}
	if string(c1) == string(c2) {
		t.Fatal("equal plaintexts produced equal RND ciphertexts")
	}
	if strings.Contains(string(c1), "john-smith") {
		t.Fatal("plaintext leaked")
	}
}

func TestExhaustiveSearchCorrectness(t *testing.T) {
	inst, conn, _ := setup(t)
	ctx := context.Background()
	for i, v := range []string{"a", "b", "a", "c", "a"} {
		if err := spi.Apply(ctx, conn, inst, model.OpInsert, string(rune('0'+i)), map[string]any{"f": v}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := inst.(spi.EqSearcher).SearchEq(ctx, "f", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("exhaustive search = %v", ids)
	}
}

func TestTamperedColumnFailsClosed(t *testing.T) {
	// Equality search authenticates every ciphertext; a tampered cloud
	// column must produce an error, not silently wrong results.
	inst, conn, cloudKV := setup(t)
	ctx := context.Background()
	if err := spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"f": "value"}); err != nil {
		t.Fatal(err)
	}
	col := []byte("rndidx/obs/f")
	ct, _, _ := cloudKV.HGet(col, []byte("d1"))
	ct[len(ct)-1] ^= 1
	cloudKV.HSet(col, []byte("d1"), ct)
	if _, err := inst.(spi.EqSearcher).SearchEq(ctx, "f", "value"); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestCiphertextBoundToDocID(t *testing.T) {
	// Moving a ciphertext to another document id must break authentication
	// (the doc id is associated data).
	inst, conn, cloudKV := setup(t)
	ctx := context.Background()
	if err := spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"f": "value"}); err != nil {
		t.Fatal(err)
	}
	col := []byte("rndidx/obs/f")
	ct, _, _ := cloudKV.HGet(col, []byte("d1"))
	cloudKV.HDel(col, []byte("d1"))
	cloudKV.HSet(col, []byte("d2"), ct)
	if _, err := inst.(spi.EqSearcher).SearchEq(ctx, "f", "value"); err == nil {
		t.Fatal("replayed ciphertext under wrong doc id accepted")
	}
}

func TestDeleteRemovesColumnEntry(t *testing.T) {
	inst, conn, _ := setup(t)
	ctx := context.Background()
	if err := spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, conn, inst, model.OpDelete, "d1", map[string]any{"f": nil}); err != nil {
		t.Fatal(err)
	}
	ids, err := inst.(spi.EqSearcher).SearchEq(ctx, "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("deleted entry still found: %v", ids)
	}
}
