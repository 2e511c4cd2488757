package mitra

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
)

func setup(t testing.TB) (*Client, *Server) {
	t.Helper()
	key, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	return NewClient(key, kvstore.New()), NewServer(kvstore.New(), "test")
}

func update(t testing.TB, c *Client, s *Server, ns, w string, op Op, id string) {
	t.Helper()
	e, err := c.Update(ns, w, op, id)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if err := s.Insert([]Entry{e}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
}

func search(t testing.TB, c *Client, s *Server, ns, w string) []string {
	t.Helper()
	req, err := c.SearchRequest(ns, w)
	if err != nil {
		t.Fatalf("SearchRequest: %v", err)
	}
	vals, err := s.Search(req)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	ids, err := c.Resolve(ns, w, vals)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	sort.Strings(ids)
	return ids
}

func TestAddSearch(t *testing.T) {
	c, s := setup(t)
	update(t, c, s, "ns", "cancer", OpAdd, "d1")
	update(t, c, s, "ns", "cancer", OpAdd, "d2")
	got := search(t, c, s, "ns", "cancer")
	if !reflect.DeepEqual(got, []string{"d1", "d2"}) {
		t.Fatalf("Search = %v", got)
	}
}

func TestBackwardPrivacyDeletion(t *testing.T) {
	c, s := setup(t)
	update(t, c, s, "ns", "w", OpAdd, "d1")
	update(t, c, s, "ns", "w", OpAdd, "d2")
	update(t, c, s, "ns", "w", OpDel, "d1")
	got := search(t, c, s, "ns", "w")
	if !reflect.DeepEqual(got, []string{"d2"}) {
		t.Fatalf("Search after delete = %v", got)
	}
	// Re-adding a deleted id resurrects it.
	update(t, c, s, "ns", "w", OpAdd, "d1")
	got = search(t, c, s, "ns", "w")
	if !reflect.DeepEqual(got, []string{"d1", "d2"}) {
		t.Fatalf("Search after re-add = %v", got)
	}
}

func TestDeleteBeforeAdd(t *testing.T) {
	// A dangling delete must not produce a phantom result, and a later add
	// is cancelled by the earlier delete only if net count <= 0; Mitra
	// semantics are net-count based.
	c, s := setup(t)
	update(t, c, s, "ns", "w", OpDel, "ghost")
	if got := search(t, c, s, "ns", "w"); len(got) != 0 {
		t.Fatalf("Search = %v, want empty", got)
	}
}

func TestEmptyKeyword(t *testing.T) {
	c, s := setup(t)
	if got := search(t, c, s, "ns", "nothing"); len(got) != 0 {
		t.Fatalf("Search(empty) = %v", got)
	}
}

func TestKeywordAndNamespaceIsolation(t *testing.T) {
	c, s := setup(t)
	update(t, c, s, "ns1", "w", OpAdd, "a")
	update(t, c, s, "ns1", "x", OpAdd, "b")
	if got := search(t, c, s, "ns1", "w"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("w = %v", got)
	}
	if got := search(t, c, s, "ns2", "w"); len(got) != 0 {
		t.Fatalf("cross-namespace = %v", got)
	}
}

func TestIDTooLong(t *testing.T) {
	c, _ := setup(t)
	long := strings.Repeat("x", MaxIDLen+1)
	if _, err := c.Update("ns", "w", OpAdd, long); err != ErrIDTooLong {
		t.Fatalf("Update(long id) = %v", err)
	}
}

func TestMaxLengthID(t *testing.T) {
	c, s := setup(t)
	id := strings.Repeat("y", MaxIDLen)
	update(t, c, s, "ns", "w", OpAdd, id)
	got := search(t, c, s, "ns", "w")
	if !reflect.DeepEqual(got, []string{id}) {
		t.Fatalf("Search = %v", got)
	}
}

func TestServerSeesOnlyOpaqueData(t *testing.T) {
	key, _ := primitives.NewRandomKey()
	store := kvstore.New()
	c := NewClient(key, kvstore.New())
	s := NewServer(store, "ns")
	e, err := c.Update("ns", "diagnosis", OpAdd, "patient-9")
	if err != nil {
		t.Fatal(err)
	}
	s.Insert([]Entry{e})
	keys, _ := store.Keys(nil)
	for _, k := range keys {
		if strings.Contains(string(k), "diagnosis") || strings.Contains(string(k), "patient-9") {
			t.Fatal("plaintext leaked into server key")
		}
		v, _, _ := store.Get(k)
		if strings.Contains(string(v), "patient-9") {
			t.Fatal("plaintext leaked into server value")
		}
	}
}

func TestResolveRejectsCorruptCell(t *testing.T) {
	c, s := setup(t)
	update(t, c, s, "ns", "w", OpAdd, "d1")
	req, _ := c.SearchRequest("ns", "w")
	vals, _ := s.Search(req)
	vals[0] = make([]byte, idSlot) // zero cell decrypts to garbage op
	if _, err := c.Resolve("ns", "w", vals); err == nil {
		t.Fatal("Resolve accepted corrupt cell")
	}
	short := [][]byte{{1, 2, 3}}
	if _, err := c.Resolve("ns", "w", short); err == nil {
		t.Fatal("Resolve accepted short cell")
	}
}

func TestForwardPrivacyAddressUnlinkability(t *testing.T) {
	// Successive updates to the same keyword must produce unrelated
	// addresses (no shared prefix beyond chance).
	c, _ := setup(t)
	e1, _ := c.Update("ns", "w", OpAdd, "d1")
	e2, _ := c.Update("ns", "w", OpAdd, "d2")
	if reflect.DeepEqual(e1.Addr, e2.Addr) {
		t.Fatal("two updates share an address")
	}
}

func TestSearchEqualsReferenceQuick(t *testing.T) {
	c, s := setup(t)
	ref := make(map[string]map[string]int) // w -> id -> net count
	f := func(wSel, idSel uint8, del bool) bool {
		w := fmt.Sprintf("w%d", wSel%4)
		id := fmt.Sprintf("d%d", idSel%16)
		op := OpAdd
		if del {
			op = OpDel
		}
		e, err := c.Update("q", w, op, id)
		if err != nil {
			return false
		}
		if err := s.Insert([]Entry{e}); err != nil {
			return false
		}
		if ref[w] == nil {
			ref[w] = make(map[string]int)
		}
		if del {
			ref[w][id]--
		} else {
			ref[w][id]++
		}

		got := searchQuiet(c, s, "q", w)
		var want []string
		for id, n := range ref[w] {
			if n > 0 {
				want = append(want, id)
			}
		}
		sort.Strings(want)
		if want == nil {
			want = []string{}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func searchQuiet(c *Client, s *Server, ns, w string) []string {
	req, err := c.SearchRequest(ns, w)
	if err != nil {
		return nil
	}
	vals, err := s.Search(req)
	if err != nil {
		return nil
	}
	ids, err := c.Resolve(ns, w, vals)
	if err != nil {
		return nil
	}
	sort.Strings(ids)
	if ids == nil {
		ids = []string{}
	}
	return ids
}

// TestKVStatePersistence: keyword counters live in the gateway store, so a
// client over the reopened store asks for the cells issued before.
func TestKVStatePersistence(t *testing.T) {
	key, _ := primitives.NewRandomKey()
	dir := filepath.Join(t.TempDir(), "state")
	store, err := kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(key, store)
	var addrs [][]byte
	for i := 0; i < 3; i++ {
		e, err := c.Update("ns", "w", OpAdd, fmt.Sprintf("d%d", i))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, e.Addr)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = kvstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c = NewClient(key, store)
	req, err := c.SearchRequest("ns", "w")
	if err != nil || !reflect.DeepEqual(req.Addrs, addrs) {
		t.Fatalf("SearchRequest after reopen = %x, %v, want %x", req.Addrs, err, addrs)
	}
	if req, _ := c.SearchRequest("ns", "absent"); len(req.Addrs) != 0 {
		t.Fatalf("SearchRequest(absent) = %d addresses", len(req.Addrs))
	}
}

func BenchmarkUpdate(b *testing.B) {
	c, s := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := c.Update("ns", "w", OpAdd, fmt.Sprintf("d%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Insert([]Entry{e}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch1000(b *testing.B) {
	c, s := setup(b)
	for i := 0; i < 1000; i++ {
		e, _ := c.Update("ns", "w", OpAdd, fmt.Sprintf("d%d", i))
		s.Insert([]Entry{e})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, _ := c.SearchRequest("ns", "w")
		vals, err := s.Search(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Resolve("ns", "w", vals); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGoldenVectors pins the bytes the cloud stores: an address, a pad and
// one encrypted cell under fixed keys, taken from the implementation that
// allocated per PRF block. Any change here orphans every stored cell.
func TestGoldenVectors(t *testing.T) {
	var kw primitives.Key
	for i := range kw {
		kw[i] = byte(i)
	}
	d := newCellPRF(kw)
	if got, want := hex.EncodeToString(d.appendAddr(nil, 7)),
		"d2f467e728bb214fb3c73b4b3451e6141ea1e3e355f69f8e67455bcc61ce80da"; got != want {
		t.Errorf("address of update 7 = %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(d.padFor(7)),
		"8ccf3907cee87cc3bdb8f0a253dc641361af4b866f66ac650c0fc817b606fd25"+
			"fe635670912fbac91dbbaf2a979b17390812cfcbcfa536c3a434b9d84b33b1eb"; got != want {
		t.Errorf("pad of update 7 = %s, want %s", got, want)
	}

	var master primitives.Key
	for i := range master {
		master[i] = byte(0xa0 + i)
	}
	st := kvstore.New()
	if _, err := st.Incr(counterKey("ns", "w"), 7); err != nil {
		t.Fatal(err)
	}
	c := NewClient(master, st)
	e, err := c.Update("ns", "w", OpAdd, "doc-0042")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(e.Addr),
		"7aff9726e82956b5029dca991405a57f9484c4f9f38408ed77571cc1effddbcb"; got != want {
		t.Errorf("cell address = %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(e.Val),
		"ae91cf7274870d2ba5be7b2d3a851e30c9845c8bfd808f1fd5b711645bf1acd0"+
			"33126d7dec92d29e23cbb486ef3f6b36cf1f9fe08efec130c72cef0b19a5e555"; got != want {
		t.Errorf("cell value = %s, want %s", got, want)
	}
	// The request for the same keyword carves the same address from its slab.
	req, err := c.SearchRequest("ns", "w")
	if err != nil {
		t.Fatal(err)
	}
	if len(req.Addrs) != 8 || !bytes.Equal(req.Addrs[7], e.Addr) {
		t.Errorf("SearchRequest address 7 = %x, want %x", req.Addrs[7], e.Addr)
	}
}

// TestResolveOrderAndCancellation: results follow first-add order, a delete
// seen before its add still cancels it, and ids whose deletes match their
// adds drop out.
func TestResolveOrderAndCancellation(t *testing.T) {
	key, _ := primitives.NewRandomKey()
	c := NewClient(key, kvstore.New())
	ops := []struct {
		op Op
		id string
	}{
		{OpDel, "a"}, {OpAdd, "b"}, {OpAdd, "a"}, {OpAdd, "a"}, {OpAdd, "c"}, {OpDel, "c"}, {OpAdd, "d"}, {OpAdd, "b"},
	}
	vals := make([][]byte, len(ops))
	for i, o := range ops {
		e, err := c.Update("ns", "w", o.op, o.id)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = e.Val
	}
	got, err := c.Resolve("ns", "w", vals)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"b", "a", "d"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Resolve = %v, want %v", got, want)
	}
}

// TestServerCellKeys: the server keeps a cell under "mitra/<namespace>/"
// followed by its address, and builds that prefix once per call: a Search
// allocates its result, one key buffer and one copy per cell found, and
// an Insert one key buffer and what the store itself copies per cell.
func TestServerCellKeys(t *testing.T) {
	c, _ := setup(t)
	store := kvstore.New()
	s := NewServer(store, "obs/code")
	var entries []Entry
	for i := 0; i < 16; i++ {
		e, err := c.Update("obs/code", "glucose", OpAdd, fmt.Sprintf("doc-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if err := s.Insert(entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		v, ok, err := store.Get(append([]byte("mitra/obs/code/"), e.Addr...))
		if err != nil || !ok || !bytes.Equal(v, e.Val) {
			t.Fatalf("cell %x is not under mitra/obs/code/<addr>: %x, %v, %v", e.Addr, v, ok, err)
		}
	}
	req, err := c.SearchRequest("obs/code", "glucose")
	if err != nil {
		t.Fatal(err)
	}
	if ids := search(t, c, s, "obs/code", "glucose"); len(ids) != len(entries) {
		t.Fatalf("search found %d ids, want %d", len(ids), len(entries))
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := float64(len(entries))
	if got := testing.AllocsPerRun(50, func() {
		if _, err := s.Search(req); err != nil {
			t.Fatal(err)
		}
	}); got > n+2 {
		t.Fatalf("Search of %v cells makes %v allocations, want at most %v", n, got, n+2)
	}
	// Re-inserting stored cells: the store copies each value and key.
	if got := testing.AllocsPerRun(50, func() {
		if err := s.Insert(entries); err != nil {
			t.Fatal(err)
		}
	}); got > 2*n+1 {
		t.Fatalf("Insert of %v cells makes %v allocations, want at most %v", n, got, 2*n+1)
	}
}
