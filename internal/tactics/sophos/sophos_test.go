package sophos_test

import (
	"bytes"
	"context"
	"datablinder/internal/cloud/ring"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	ssesophos "datablinder/internal/sse/sophos"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics/sophos"
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
	sophos.RegisterCloud(mux, cloudKV)
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
	inst, err := sophos.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.(spi.Provisioner).Setup(context.Background()); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return inst
}

func TestOperationsRequireSetup(t *testing.T) {
	e := newEnv(t)
	inst, err := sophos.New(e.binding)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"f": "v"}); err == nil {
		t.Fatal("Insert before Setup succeeded")
	}
	if _, err := inst.(spi.EqSearcher).SearchEq(ctx, "f", "v"); err == nil {
		t.Fatal("SearchEq before Setup succeeded")
	}
}

func TestTDPPersistsAcrossInstances(t *testing.T) {
	// A second tactic instance over the same gateway store (gateway
	// restart) must load the persisted RSA trapdoor: entries written by
	// the first instance stay searchable.
	e := newEnv(t)
	ctx := context.Background()
	inst1 := instance(t, e)
	if err := spi.Apply(ctx, e.binding.Cloud, inst1, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}

	inst2 := instance(t, e)
	if err := spi.Apply(ctx, e.binding.Cloud, inst2, model.OpInsert, "d2", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	ids, err := inst2.(spi.EqSearcher).SearchEq(ctx, "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("search across restart = %v", ids)
	}
}

func TestVersionedDeletion(t *testing.T) {
	// Sophos has no native delete; the tactic layers versioned ids on top.
	e := newEnv(t)
	ctx := context.Background()
	inst := instance(t, e)
	es := inst.(spi.EqSearcher)

	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d2", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpDelete, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	ids, err := es.SearchEq(ctx, "f", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "d2" {
		t.Fatalf("search after delete = %v", ids)
	}

	// Re-insert resurrects under a fresh version.
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	ids, _ = es.SearchEq(ctx, "f", "v")
	if len(ids) != 2 {
		t.Fatalf("search after re-insert = %v", ids)
	}

	// Update semantics: delete + insert under a different value.
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpDelete, "d2", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d2", map[string]any{"f": "w"}); err != nil {
		t.Fatal(err)
	}
	ids, _ = es.SearchEq(ctx, "f", "v")
	if len(ids) != 1 || ids[0] != "d1" {
		t.Fatalf("old value after update = %v", ids)
	}
	ids, _ = es.SearchEq(ctx, "f", "w")
	if len(ids) != 1 || ids[0] != "d2" {
		t.Fatalf("new value after update = %v", ids)
	}
}

func TestDeleteUnknownIsNoop(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	if err := spi.Apply(context.Background(), e.binding.Cloud, inst, model.OpDelete, "ghost", map[string]any{"f": "v"}); err != nil {
		t.Fatalf("Delete(unknown): %v", err)
	}
}

func TestDescriptorMatchesTable2(t *testing.T) {
	d := sophos.Describe()
	if len(d.GatewayInterfaces) != 6 || len(d.CloudInterfaces) != 4 {
		t.Fatalf("SPI counts = %d/%d, want 6/4", len(d.GatewayInterfaces), len(d.CloudInterfaces))
	}
	if d.Challenge != "Key management" {
		t.Fatalf("challenge = %q", d.Challenge)
	}
}

// cloudSwitch is a Conn whose far end can be replaced under a gateway that
// keeps running: a cloud restart.
type cloudSwitch struct {
	mu   sync.Mutex
	conn transport.Conn
}

func (c *cloudSwitch) Call(ctx context.Context, service, method string, args, reply any) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	return conn.Call(ctx, service, method, args, reply)
}

func (c *cloudSwitch) Close() error { return nil }

func (c *cloudSwitch) restart(conn transport.Conn) {
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
}

// openCloud opens the cloud half persisted under dir.
func openCloud(t *testing.T, dir string) (*kvstore.Store, transport.Conn) {
	t.Helper()
	kv, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux()
	sophos.RegisterCloud(mux, kv)
	return kv, transport.NewLoopback(mux)
}

func searchSorted(t *testing.T, inst spi.Tactic, value string) string {
	t.Helper()
	ids, err := inst.(spi.EqSearcher).SearchEq(context.Background(), "f", value)
	if err != nil {
		t.Fatalf("search %s: %v", value, err)
	}
	sort.Strings(ids)
	return fmt.Sprint(ids)
}

// TestCloudRestartReloadsKey: the cloud keeps the public key as an {n, e}
// record, and a restarted cloud parses it from the store to search data
// written before the restart — no setup in between.
func TestCloudRestartReloadsKey(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cloud")
	kv, conn := openCloud(t, dir)
	sw := &cloudSwitch{conn: conn}
	e := newEnv(t)
	e.binding.Cloud = ring.Of(sw)
	inst := instance(t, e)
	ctx := context.Background()
	for _, id := range []string{"d1", "d2"} {
		if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, id, map[string]any{"f": "v"}); err != nil {
			t.Fatal(err)
		}
	}
	raw, ok, err := kv.Get([]byte("sophospk/obs"))
	if err != nil || !ok || bytes.HasPrefix(raw, []byte("{")) {
		t.Fatalf("stored key = %q, %v, %v; want an {n, e} record", raw, ok, err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, conn2 := openCloud(t, dir)
	defer kv2.Close()
	sw.restart(conn2)
	if got := searchSorted(t, inst, "v"); got != "[d1 d2]" {
		t.Fatalf("search after the cloud restarted = %s, want [d1 d2]", got)
	}
	if err := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d3", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if got := searchSorted(t, inst, "v"); got != "[d1 d2 d3]" {
		t.Fatalf("search after a post-restart insert = %s, want [d1 d2 d3]", got)
	}
}

// TestLegacyJSONKeyRefused: a key stored as JSON, the way earlier builds
// did, fails insert and search with ErrStoredKeyFormat naming the key, and
// stays in the store as it was.
func TestLegacyJSONKeyRefused(t *testing.T) {
	e := newEnv(t)
	inst := instance(t, e)
	legacy, err := json.Marshal(ssesophos.PublicKey{N: bytes.Repeat([]byte{0xc3}, 256), E: 65537})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cloudKV.Set([]byte("sophospk/obs"), legacy); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	insertErr := spi.Apply(ctx, e.binding.Cloud, inst, model.OpInsert, "d1", map[string]any{"f": "v"})
	_, searchErr := inst.(spi.EqSearcher).SearchEq(ctx, "f", "v")
	for op, err := range map[string]error{"insert": insertErr, "search": searchErr} {
		if err == nil || !strings.Contains(err.Error(), sophos.ErrStoredKeyFormat.Error()) || !strings.Contains(err.Error(), "sophospk/obs") {
			t.Errorf("%s over a JSON key = %v, want %v naming the key", op, err, sophos.ErrStoredKeyFormat)
		}
	}
	if got, _, _ := e.cloudKV.Get([]byte("sophospk/obs")); !bytes.Equal(got, legacy) {
		t.Fatal("the refused key was rewritten")
	}
}

// TestCloudKeyCacheFollowsSetup: after a gateway with a new trapdoor runs
// setup for the same schema, the cloud walks chains with the new key, not
// the one it had cached.
func TestCloudKeyCacheFollowsSetup(t *testing.T) {
	e := newEnv(t)
	ctx := context.Background()
	first := instance(t, e)
	if err := spi.Apply(ctx, e.binding.Cloud, first, model.OpInsert, "d1", map[string]any{"f": "v"}); err != nil {
		t.Fatal(err)
	}
	if got := searchSorted(t, first, "v"); got != "[d1]" {
		t.Fatalf("first key: search = %s", got) // warms the cache with the first key
	}
	// A gateway with an empty Local generates a new trapdoor for the schema.
	local := kvstore.New()
	t.Cleanup(func() { local.Close() })
	e.binding.Local = local
	second := instance(t, e)
	for _, id := range []string{"d2", "d3"} {
		if err := spi.Apply(ctx, e.binding.Cloud, second, model.OpInsert, id, map[string]any{"f": "w"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := searchSorted(t, second, "w"); got != "[d2 d3]" {
		t.Fatalf("search under the re-registered key = %s, want [d2 d3]", got)
	}
}
