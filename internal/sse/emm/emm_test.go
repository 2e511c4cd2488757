package emm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/wirefmt"
)

func setup(t testing.TB) (*Client, *Server) {
	t.Helper()
	key, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	client := NewClient(key, NewMemState())
	server := NewServer(kvstore.New(), "test")
	return client, server
}

func appendAll(t testing.TB, c *Client, s *Server, ns, w string, ids ...string) {
	t.Helper()
	for _, id := range ids {
		e, err := c.Append(ns, w, id)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := s.Insert([]Entry{e}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

func search(t testing.TB, c *Client, s *Server, ns, w string) []string {
	t.Helper()
	tok, err := c.Token(ns, w)
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	ids, err := s.Search(tok)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	sort.Strings(ids)
	return ids
}

func TestAppendSearch(t *testing.T) {
	c, s := setup(t)
	appendAll(t, c, s, "ns", "diabetes", "d1", "d2", "d3")
	got := search(t, c, s, "ns", "diabetes")
	want := []string{"d1", "d2", "d3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
}

func TestEmptyKeyword(t *testing.T) {
	c, s := setup(t)
	if got := search(t, c, s, "ns", "never-inserted"); len(got) != 0 {
		t.Fatalf("Search(empty keyword) = %v", got)
	}
}

func TestKeywordIsolation(t *testing.T) {
	c, s := setup(t)
	appendAll(t, c, s, "ns", "w1", "a")
	appendAll(t, c, s, "ns", "w2", "b")
	if got := search(t, c, s, "ns", "w1"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("w1 = %v", got)
	}
	if got := search(t, c, s, "ns", "w2"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("w2 = %v", got)
	}
}

func TestNamespaceIsolation(t *testing.T) {
	c, s := setup(t)
	appendAll(t, c, s, "ns1", "w", "a")
	if got := search(t, c, s, "ns2", "w"); len(got) != 0 {
		t.Fatalf("cross-namespace search = %v", got)
	}
	// Also across server namespaces: same client, different server ns.
	s2 := NewServer(kvstore.New(), "other")
	tok, _ := c.Token("ns1", "w")
	ids, err := s2.Search(tok)
	if err != nil || len(ids) != 0 {
		t.Fatalf("foreign server returned %v, %v", ids, err)
	}
}

func TestBuildPackedAndTail(t *testing.T) {
	c, s := setup(t)
	// 20 ids -> 3 buckets at capacity 8.
	var ids []string
	for i := 0; i < 20; i++ {
		ids = append(ids, fmt.Sprintf("d%02d", i))
	}
	entries, old, nu, err := c.BuildPacked("ns", "w", ids)
	if err != nil {
		t.Fatalf("BuildPacked: %v", err)
	}
	if old.Packed != 0 || old.Tail != 0 {
		t.Fatalf("old counts = %+v", old)
	}
	if nu.Packed != 3 || nu.Tail != 0 {
		t.Fatalf("new counts = %+v", nu)
	}
	if len(entries) != 3 {
		t.Fatalf("bucket count = %d", len(entries))
	}
	if err := s.Insert(entries); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got := search(t, c, s, "ns", "w")
	if len(got) != 20 {
		t.Fatalf("Search after pack = %d ids", len(got))
	}
	// Dynamic tail on top of packed level.
	appendAll(t, c, s, "ns", "w", "d-new")
	got = search(t, c, s, "ns", "w")
	if len(got) != 21 || got[20] != "d20" && got[0] != "d-new" {
		if len(got) != 21 {
			t.Fatalf("Search after tail append = %d ids", len(got))
		}
	}
}

func TestRebuildReplacesOldCells(t *testing.T) {
	c, s := setup(t)
	appendAll(t, c, s, "ns", "w", "a", "b", "c")

	// Rebuild with only the surviving ids (simulating deletion of "b").
	entries, old, _, err := c.BuildPacked("ns", "w", []string{"a", "c"})
	if err != nil {
		t.Fatalf("BuildPacked: %v", err)
	}
	if err := s.Delete(c.StaleAddrs("ns", "w", old)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Insert(entries); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got := search(t, c, s, "ns", "w")
	if !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("Search after rebuild = %v", got)
	}
}

func TestServerCellsAreOpaque(t *testing.T) {
	// Every stored cell must look like ciphertext: no plaintext ids in keys
	// or values.
	key, _ := primitives.NewRandomKey()
	store := kvstore.New()
	c := NewClient(key, NewMemState())
	s := NewServer(store, "ns")
	e, err := c.Append("ns", "hypertension", "patient-007")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert([]Entry{e}); err != nil {
		t.Fatal(err)
	}
	keys, _ := store.Keys(nil)
	for _, k := range keys {
		if containsSubstring(k, "hypertension") || containsSubstring(k, "patient-007") {
			t.Fatalf("plaintext leaked into server key %q", k)
		}
		v, _, _ := store.Get(k)
		if containsSubstring(v, "patient-007") {
			t.Fatalf("plaintext leaked into server value")
		}
	}
}

func containsSubstring(b []byte, sub string) bool {
	return len(sub) > 0 && len(b) >= len(sub) && (string(b) == sub || indexOf(b, sub) >= 0)
}

func indexOf(b []byte, sub string) int {
	for i := 0; i+len(sub) <= len(b); i++ {
		if string(b[i:i+len(sub)]) == sub {
			return i
		}
	}
	return -1
}

func TestSearchRejectsBadToken(t *testing.T) {
	_, s := setup(t)
	if _, err := s.Search(SearchToken{AddrKey: []byte{1}, ValueKey: []byte{2}}); err != ErrBadToken {
		t.Fatalf("bad token error = %v", err)
	}
}

func TestWrongValueKeyFailsClosed(t *testing.T) {
	c, s := setup(t)
	appendAll(t, c, s, "ns", "w", "a")
	tok, _ := c.Token("ns", "w")
	// Corrupt the value key: the address resolves but decryption must fail
	// rather than return garbage.
	tok.ValueKey = make([]byte, primitives.KeySize)
	if _, err := s.Search(tok); err == nil {
		t.Fatal("Search with wrong value key succeeded")
	}
}

func TestKVStateRoundTrip(t *testing.T) {
	st := NewKVState(kvstore.New())
	if err := st.SetCounts("ns", "w", Counts{Packed: 2, Tail: 5}); err != nil {
		t.Fatalf("SetCounts: %v", err)
	}
	c, err := st.Counts("ns", "w")
	if err != nil || c.Packed != 2 || c.Tail != 5 {
		t.Fatalf("Counts = %+v, %v", c, err)
	}
	c, err = st.Counts("ns", "other")
	if err != nil || c.Packed != 0 || c.Tail != 0 {
		t.Fatalf("Counts(absent) = %+v, %v", c, err)
	}
}

func TestSearchEqualsReferenceIndexQuick(t *testing.T) {
	// Property: EMM search results always equal a plaintext inverted index
	// built from the same operations.
	c, s := setup(t)
	ref := make(map[string][]string)
	f := func(wSel, idSel uint8) bool {
		w := fmt.Sprintf("w%d", wSel%5)
		id := fmt.Sprintf("d%d", idSel)
		e, err := c.Append("q", w, id)
		if err != nil {
			return false
		}
		if err := s.Insert([]Entry{e}); err != nil {
			return false
		}
		ref[w] = append(ref[w], id)

		tok, err := c.Token("q", w)
		if err != nil {
			return false
		}
		got, err := s.Search(tok)
		if err != nil {
			return false
		}
		sort.Strings(got)
		want := append([]string(nil), ref[w]...)
		sort.Strings(want)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	c, s := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := c.Append("ns", "w", fmt.Sprintf("d%d", i))
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
		e, _ := c.Append("ns", "w", fmt.Sprintf("d%d", i))
		s.Insert([]Entry{e})
	}
	tok, _ := c.Token("ns", "w")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(tok); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchPacked1000(b *testing.B) {
	c, s := setup(b)
	var ids []string
	for i := 0; i < 1000; i++ {
		ids = append(ids, fmt.Sprintf("d%d", i))
	}
	entries, _, _, _ := c.BuildPacked("ns", "w", ids)
	s.Insert(entries)
	tok, _ := c.Token("ns", "w")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(tok); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSharedCellsMixWithLegacy(t *testing.T) {
	c, s := setup(t)
	appendAll(t, c, s, "ns", "w", "d1", "d2")

	// A newer writer ships shared-payload cells for the same keyword:
	// each cell is a key wrap and the server stores the assembled
	// self-contained value.
	kd, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("kd: %v", err)
	}
	nonce, err := primitives.RandomBytes(SharedNonceLen)
	if err != nil {
		t.Fatalf("nonce: %v", err)
	}
	shared, err := SealSharedIDs(kd, []string{"d3", "d4"})
	if err != nil {
		t.Fatalf("SealSharedIDs: %v", err)
	}
	addr, vk, err := c.AppendAddr("ns", "w")
	if err != nil {
		t.Fatalf("AppendAddr: %v", err)
	}
	wrap := WrapSharedKey(vk, nonce, kd)
	if len(wrap) != SharedWrapLen {
		t.Fatalf("wrap len = %d, want %d", len(wrap), SharedWrapLen)
	}
	if err := s.Insert([]Entry{{Addr: addr, Val: SharedValue(wrap, nonce, shared)}}); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	got := search(t, c, s, "ns", "w")
	want := []string{"d1", "d2", "d3", "d4"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-era Search = %v, want %v", got, want)
	}
}

func TestSharedCellWrongKeyFailsClosed(t *testing.T) {
	c, s := setup(t)
	kd, _ := primitives.NewRandomKey()
	nonce, _ := primitives.RandomBytes(SharedNonceLen)
	shared, err := SealSharedIDs(kd, []string{"d1"})
	if err != nil {
		t.Fatalf("SealSharedIDs: %v", err)
	}
	addr, _, err := c.AppendAddr("ns", "w")
	if err != nil {
		t.Fatalf("AppendAddr: %v", err)
	}
	// Wrap under an unrelated key: neither the shared parse nor the
	// legacy fallback may yield ids.
	wrong, _ := primitives.NewRandomKey()
	if err := s.Insert([]Entry{{Addr: addr, Val: SharedValue(WrapSharedKey(wrong, nonce, kd), nonce, shared)}}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	tok, err := c.Token("ns", "w")
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	if _, err := s.Search(tok); err == nil {
		t.Fatal("Search with mis-wrapped shared cell succeeded, want error")
	}
}

// TestSharedGroupKeysBypassAEADCache: a shared-payload cell's group key is
// used for that one cell, so opening (or sealing) it must not take a slot in
// the AEAD cache that keyword value keys share; one search adds the
// keyword's own value key and nothing else, however many cells it opens.
func TestSharedGroupKeysBypassAEADCache(t *testing.T) {
	c, s := setup(t)
	const cells = 40
	for i := 0; i < cells; i++ {
		kd, err := primitives.NewRandomKey()
		if err != nil {
			t.Fatal(err)
		}
		nonce, err := primitives.RandomBytes(SharedNonceLen)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := SealSharedIDs(kd, []string{fmt.Sprintf("d%02d", i)})
		if err != nil {
			t.Fatal(err)
		}
		addr, vk, err := c.AppendAddr("ns", "w")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Insert([]Entry{{Addr: addr, Val: SharedValue(WrapSharedKey(vk, nonce, kd), nonce, shared)}}); err != nil {
			t.Fatal(err)
		}
	}
	appendAll(t, c, s, "ns", "w", "tail") // a plain cell, which does use the value key
	before := aeads.Len()
	if got := search(t, c, s, "ns", "w"); len(got) != cells+1 {
		t.Fatalf("Search returned %d ids, want %d", len(got), cells+1)
	}
	if grew := aeads.Len() - before; grew != 0 {
		t.Errorf("searching %d shared cells added %d AEAD cache entries, want 0 (the value key was cached by Append)", cells, grew)
	}
}

// TestIDListEncoding pins the sealed plaintext of a cell — a count-prefixed
// list of length-prefixed strings — and that anything else inside a valid
// AEAD is an error, not an empty or partial result.
func TestIDListEncoding(t *testing.T) {
	key, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	aead, err := primitives.NewAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][]string{nil, {""}, {"d1"}, {"d1", "naïve ✓", string(make([]byte, 200))}} {
		blob, err := sealIDs(aead, ids)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := aead.Open(blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := wirefmt.AppendStrings(nil, ids); !bytes.Equal(pt, want) {
			t.Errorf("sealed plaintext of %q = %x, want %x", ids, pt, want)
		}
		got, err := openIDs(key, blob)
		if err != nil || !reflect.DeepEqual(got, ids) {
			t.Errorf("openIDs(sealIDs(%q)) = %q, %v", ids, got, err)
		}
	}
	for name, pt := range map[string][]byte{
		"JSON array":      []byte(`["d1","d2"]`),
		"truncated":       wirefmt.AppendStrings(nil, []string{"d1", "d2"})[:5],
		"trailing byte":   append(wirefmt.AppendStrings(nil, []string{"d1"}), 0),
		"count too large": {9, 1, 'a'},
	} {
		blob, err := aead.Seal(pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ids, err := openIDs(key, blob); !errors.Is(err, wirefmt.ErrMalformed) {
			t.Errorf("%s: openIDs = %q, %v; want wirefmt.ErrMalformed", name, ids, err)
		}
	}
}
