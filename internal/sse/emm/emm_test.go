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
	client := NewClient(key, kvstore.New())
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
	c := NewClient(key, kvstore.New())
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

// TestKVStateRoundTrip: counters stored with one Set each read back, and
// the next tail index counts on from the stored tail.
func TestKVStateRoundTrip(t *testing.T) {
	key, _ := primitives.NewRandomKey()
	st := NewClient(key, kvstore.New())
	if err := st.setCounts("ns", "w", Counts{Packed: 2, Tail: 5}); err != nil {
		t.Fatalf("setCounts: %v", err)
	}
	c, err := st.counts("ns", "w")
	if err != nil || c.Packed != 2 || c.Tail != 5 {
		t.Fatalf("counts = %+v, %v", c, err)
	}
	if i, err := st.nextTail("ns", "w"); err != nil || i != 5 {
		t.Fatalf("nextTail = %d, %v, want 5", i, err)
	}
	c, err = st.counts("ns", "other")
	if err != nil || c.Packed != 0 || c.Tail != 0 {
		t.Fatalf("counts(absent) = %+v, %v", c, err)
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

// sharedCell appends one shared-payload cell for w carrying ids, wrapped
// under wrapKey (the keyword's own value key when nil).
func sharedCell(t testing.TB, c *Client, s *Server, ns, w string, wrapKey *primitives.Key, ids ...string) {
	t.Helper()
	kd, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("kd: %v", err)
	}
	nonce, err := primitives.RandomBytes(SharedNonceLen)
	if err != nil {
		t.Fatalf("nonce: %v", err)
	}
	shared, err := SealSharedIDs(kd, ids)
	if err != nil {
		t.Fatalf("SealSharedIDs: %v", err)
	}
	addr, vk, err := c.AppendAddr(ns, w)
	if err != nil {
		t.Fatalf("AppendAddr: %v", err)
	}
	if wrapKey != nil {
		vk = *wrapKey
	}
	wrap := WrapSharedKey(vk, nonce, kd)
	if len(wrap) != SharedWrapLen {
		t.Fatalf("wrap len = %d, want %d", len(wrap), SharedWrapLen)
	}
	if err := s.Insert([]Entry{{Addr: addr, Val: SharedValue(wrap, nonce, shared)}}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
}

// TestOneFormPerMultimap: a server opens its own form and nothing else. A
// cell of the other form is ErrCellFormat — in both directions, and also for
// the 1-in-256 sealed cell whose random nonce starts with the shared magic,
// which the old try-shared-first open used to pay a PRF and an AEAD for.
func TestOneFormPerMultimap(t *testing.T) {
	c, sealed := setup(t)
	shared := NewSharedServer(kvstore.New(), "test")

	sharedCell(t, c, shared, "ns", "w", nil, "d1", "d2")
	sharedCell(t, c, shared, "ns", "w", nil, "d3")
	if got := search(t, c, shared, "ns", "w"); !reflect.DeepEqual(got, []string{"d1", "d2", "d3"}) {
		t.Fatalf("shared multimap Search = %v", got)
	}
	appendAll(t, c, sealed, "ns", "x", "d1", "d2")
	if got := search(t, c, sealed, "ns", "x"); !reflect.DeepEqual(got, []string{"d1", "d2"}) {
		t.Fatalf("sealed multimap Search = %v", got)
	}

	// A sealed cell in the shared multimap.
	appendAll(t, c, shared, "ns", "y", "d9")
	tok, _ := c.Token("ns", "y")
	if ids, err := shared.Search(tok); !errors.Is(err, ErrCellFormat) {
		t.Errorf("sealed cell under NewSharedServer: %v, %v; want ErrCellFormat", ids, err)
	}
	// A shared cell in the sealed multimap.
	sharedCell(t, c, sealed, "ns", "z", nil, "d9")
	tok, _ = c.Token("ns", "z")
	if ids, err := sealed.Search(tok); !errors.Is(err, ErrCellFormat) {
		t.Errorf("shared cell under NewServer: %v, %v; want ErrCellFormat", ids, err)
	}

	// Sealed cells whose nonce happens to start with the magic byte are
	// ordinary sealed cells: opened once, by the AEAD.
	found := 0
	for i := 0; found < 3; i++ {
		e, err := c.Append("ns", "m", fmt.Sprintf("m%04d", i))
		if err != nil {
			t.Fatal(err)
		}
		if e.Val[0] == sharedMagic {
			found++
		}
		if err := sealed.Insert([]Entry{e}); err != nil {
			t.Fatal(err)
		}
		if i > 20000 {
			t.Fatal("no sealed cell with a magic-prefixed nonce in 20000 draws")
		}
	}
	tok, _ = c.Token("ns", "m")
	ids, err := sealed.Search(tok)
	if err != nil || uint64(len(ids)) != tok.Counts.Tail {
		t.Fatalf("Search over magic-prefixed sealed cells = %d ids, %v; want %d", len(ids), err, tok.Counts.Tail)
	}
}

func TestSharedCellWrongKeyFailsClosed(t *testing.T) {
	c, _ := setup(t)
	s := NewSharedServer(kvstore.New(), "test")
	// Wrap under an unrelated key: the cell is well-formed but must not open.
	wrong, _ := primitives.NewRandomKey()
	sharedCell(t, c, s, "ns", "w", &wrong, "d1")
	tok, err := c.Token("ns", "w")
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	if ids, err := s.Search(tok); !errors.Is(err, primitives.ErrAuthentication) {
		t.Fatalf("Search with mis-wrapped shared cell = %v, %v; want ErrAuthentication", ids, err)
	}
}

// TestSharedGroupKeysBypassAEADCache: a shared-payload cell's group key is
// used for that one cell, so opening (or sealing) it must not take a slot in
// the AEAD cache that keyword value keys share; a search over a shared
// multimap adds nothing to it, however many cells it opens.
func TestSharedGroupKeysBypassAEADCache(t *testing.T) {
	c, _ := setup(t)
	s := NewSharedServer(kvstore.New(), "test")
	const cells = 40
	before := aeads.Len()
	for i := 0; i < cells; i++ {
		sharedCell(t, c, s, "ns", "w", nil, fmt.Sprintf("d%02d", i))
	}
	if got := search(t, c, s, "ns", "w"); len(got) != cells {
		t.Fatalf("Search returned %d ids, want %d", len(got), cells)
	}
	if grew := aeads.Len() - before; grew != 0 {
		t.Errorf("writing and searching %d shared cells added %d AEAD cache entries, want 0", cells, grew)
	}
}

// TestSearchWalkCosts pins what a probe costs. A search keys HMAC once and
// derives every address into one reused cell-key buffer, so a probe that
// finds nothing allocates nothing, and the counters say exactly how many
// cells were probed and how many opened.
func TestSearchWalkCosts(t *testing.T) {
	c, s := setup(t)
	appendAll(t, c, s, "ns", "w", "d1", "d2", "d3")
	tok, _ := c.Token("ns", "w")
	tok.Counts.Tail = 1000 // 997 addresses that were never written
	if ids, err := s.Search(tok); err != nil || len(ids) != 3 {
		t.Fatalf("Search = %v, %v", ids, err)
	}
	if st := s.Stats(); st.Probes != 1000 || st.Opens != 3 {
		t.Fatalf("Stats = %+v, want 1000 probes and 3 opens", st)
	}
	if raceEnabled {
		return
	}
	allocs := func(tail uint64) float64 {
		tok.Counts.Tail = tail
		return testing.AllocsPerRun(20, func() {
			if _, err := s.Search(tok); err != nil {
				t.Fatal(err)
			}
		})
	}
	if with, without := allocs(1000), allocs(3); with != without {
		t.Errorf("997 missing-cell probes cost %.0f allocations (%.0f with them, %.0f without), want 0", with-without, with, without)
	}
}

// TestPerKeywordKeysStayOutOfTheMACPool: the HMAC state pool is first-come
// and never evicts, so per-keyword keys must not enter it — 10 000 keywords'
// worth of appends, shared-cell wraps, searches and rebuild sweeps later, a
// long-lived key used for the first time still gets a pooled state.
func TestPerKeywordKeysStayOutOfTheMACPool(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, s := setup(t)
	shared := NewSharedServer(kvstore.New(), "test")
	for i := 0; i < 10000; i++ {
		w := fmt.Sprintf("w%05d", i)
		appendAll(t, c, s, "ns", w, "d")
		sharedCell(t, c, shared, "ns", w, nil, "d")
		if i%100 == 0 {
			search(t, c, s, "ns", w)
			search(t, c, shared, "ns", w)
			c.StaleAddrs("ns", w, Counts{Packed: 1, Tail: 2})
		}
	}
	fresh, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, primitives.PRFSize)
	data := []byte("first use of a long-lived key")
	primitives.PRFInto(buf, fresh, data)
	if got := testing.AllocsPerRun(200, func() { primitives.PRFInto(buf, fresh, data) }); got > 1 {
		t.Errorf("PRFInto on a long-lived key first used after 10 000 keywords = %.1f allocs/op, want <= 1 (its pool slot was taken)", got)
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
		got, err := openSealedIDs(aead, blob)
		if err != nil || !reflect.DeepEqual(got, ids) {
			t.Errorf("openSealedIDs(sealIDs(%q)) = %q, %v", ids, got, err)
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
		if ids, err := openSealedIDs(aead, blob); !errors.Is(err, wirefmt.ErrMalformed) {
			t.Errorf("%s: openSealedIDs = %q, %v; want wirefmt.ErrMalformed", name, ids, err)
		}
	}
}
