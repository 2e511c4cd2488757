package det_test

import (
	"context"
	"datablinder/internal/cloud/ring"
	"strings"
	"testing"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/det"
	"datablinder/internal/transport"
)

func setup(t *testing.T) (spi.Tactic, *ring.Ring, *kvstore.Store) {
	t.Helper()
	mux := transport.NewMux()
	cloudKV := kvstore.New()
	t.Cleanup(func() { cloudKV.Close() })
	det.RegisterCloud(mux, cloudKV)
	kp, err := keys.NewRandomStore()
	if err != nil {
		t.Fatal(err)
	}
	conn := ring.Of(transport.NewLoopback(mux))
	inst, err := det.New(spi.Binding{Schema: "obs", Keys: kp, Cloud: conn, Local: kvstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	return inst, conn, cloudKV
}

func TestFieldIsolation(t *testing.T) {
	inst, conn, _ := setup(t)
	ctx := context.Background()
	if err := spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"status": "final"}); err != nil {
		t.Fatal(err)
	}
	// The same value under a different field must not match: keys are
	// derived per field.
	ids, err := inst.(spi.EqSearcher).SearchEq(ctx, "code", "final")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("cross-field match: %v", ids)
	}
}

func TestCloudSeesOnlyCiphertext(t *testing.T) {
	inst, conn, cloudKV := setup(t)
	ctx := context.Background()
	if err := spi.Apply(ctx, conn, inst, model.OpInsert, "patient-7", map[string]any{"diagnosis": "pancreatic-cancer"}); err != nil {
		t.Fatal(err)
	}
	keysList, _ := cloudKV.Keys(nil)
	for _, k := range keysList {
		if strings.Contains(string(k), "pancreatic-cancer") {
			t.Fatal("plaintext value leaked into cloud index key")
		}
	}
}

func TestNumericCanonicalization(t *testing.T) {
	// int and int64 representations of the same number must produce the
	// same deterministic ciphertext (ValueToString canonicalization).
	inst, conn, _ := setup(t)
	ctx := context.Background()
	if err := spi.Apply(ctx, conn, inst, model.OpInsert, "d1", map[string]any{"n": int64(42)}); err != nil {
		t.Fatal(err)
	}
	ids, err := inst.(spi.EqSearcher).SearchEq(ctx, "n", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("int/int64 canonicalization broken: %v", ids)
	}
}

func TestDescriptorMatchesTable2(t *testing.T) {
	d := det.Describe()
	if len(d.GatewayInterfaces) != 9 || len(d.CloudInterfaces) != 6 {
		t.Fatalf("SPI counts = %d/%d, want 9/6", len(d.GatewayInterfaces), len(d.CloudInterfaces))
	}
	if d.Challenge != "-" {
		t.Fatalf("challenge = %q", d.Challenge)
	}
}
