package zmf

import (
	"fmt"
	"testing"

	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
)

func setup(t testing.TB) (*Client, *Server) {
	t.Helper()
	key, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	return NewClient(key), NewServer(kvstore.New(), "test")
}

func TestInsertTest(t *testing.T) {
	c, s := setup(t)
	if err := s.Apply([]UpdateEntry{c.Insert("ns", "diabetes", "d1"), c.Insert("ns", "diabetes", "d2")}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, err := s.Test(c.Token("ns", "diabetes"), []string{"d1", "d2", "d3"})
	if err != nil {
		t.Fatalf("Test: %v", err)
	}
	if !got[0] || !got[1] {
		t.Fatalf("members reported absent: %v", got)
	}
	if got[2] {
		t.Fatal("non-member reported present (unlucky false positive at n=2 is ~impossible)")
	}
}

func TestKeywordIsolation(t *testing.T) {
	c, s := setup(t)
	s.Apply([]UpdateEntry{c.Insert("ns", "w1", "d1")})
	got, err := s.Test(c.Token("ns", "w2"), []string{"d1"})
	if err != nil || got[0] {
		t.Fatalf("cross-keyword membership = %v, %v", got, err)
	}
}

func TestNamespaceIsolation(t *testing.T) {
	c, s := setup(t)
	s.Apply([]UpdateEntry{c.Insert("ns1", "w", "d1")})
	got, err := s.Test(c.Token("ns2", "w"), []string{"d1"})
	if err != nil || got[0] {
		t.Fatalf("cross-namespace membership = %v, %v", got, err)
	}
}

func TestCountingDeletion(t *testing.T) {
	c, s := setup(t)
	s.Apply([]UpdateEntry{c.Insert("ns", "w", "d1"), c.Insert("ns", "w", "d2")})
	s.Apply([]UpdateEntry{c.Delete("ns", "w", "d1")})
	got, err := s.Test(c.Token("ns", "w"), []string{"d1", "d2"})
	if err != nil {
		t.Fatalf("Test: %v", err)
	}
	if got[0] {
		t.Fatal("deleted member still present")
	}
	if !got[1] {
		t.Fatal("surviving member lost after unrelated delete")
	}
}

func TestDoubleInsertSurvivesOneDelete(t *testing.T) {
	c, s := setup(t)
	s.Apply([]UpdateEntry{c.Insert("ns", "w", "d1"), c.Insert("ns", "w", "d1")})
	s.Apply([]UpdateEntry{c.Delete("ns", "w", "d1")})
	got, _ := s.Test(c.Token("ns", "w"), []string{"d1"})
	if !got[0] {
		t.Fatal("counting semantics broken: one delete erased two inserts")
	}
}

func TestDeleteBeyondInsertsClamps(t *testing.T) {
	c, s := setup(t)
	if err := s.Apply([]UpdateEntry{c.Delete("ns", "w", "ghost")}); err != nil {
		t.Fatalf("Apply(delete of absent): %v", err)
	}
	// Filter must still work afterwards.
	s.Apply([]UpdateEntry{c.Insert("ns", "w", "d1")})
	got, _ := s.Test(c.Token("ns", "w"), []string{"d1"})
	if !got[0] {
		t.Fatal("filter corrupted by clamped delete")
	}
}

func TestApplyValidation(t *testing.T) {
	_, s := setup(t)
	if err := s.Apply([]UpdateEntry{{Label: []byte("l"), Positions: []uint64{1, 2}, Delta: 1}}); err == nil {
		t.Fatal("Apply accepted wrong probe count")
	}
	bad := make([]uint64, Hashes)
	bad[0] = FilterBits
	if err := s.Apply([]UpdateEntry{{Label: []byte("l"), Positions: bad, Delta: 1}}); err == nil {
		t.Fatal("Apply accepted out-of-range position")
	}
}

func TestTestRejectsBadToken(t *testing.T) {
	_, s := setup(t)
	if _, err := s.Test(TestToken{Label: []byte("l"), ProbeKey: []byte{1}}, []string{"x"}); err != ErrBadToken {
		t.Fatalf("bad token error = %v", err)
	}
}

func TestNoFalseNegativesBulk(t *testing.T) {
	c, s := setup(t)
	var entries []UpdateEntry
	ids := make([]string, 500)
	for i := range ids {
		ids[i] = fmt.Sprintf("doc-%04d", i)
		entries = append(entries, c.Insert("ns", "w", ids[i]))
	}
	if err := s.Apply(entries); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, err := s.Test(c.Token("ns", "w"), ids)
	if err != nil {
		t.Fatalf("Test: %v", err)
	}
	for i, m := range got {
		if !m {
			t.Fatalf("false negative for %s", ids[i])
		}
	}
}

func TestFalsePositiveRateBounded(t *testing.T) {
	c, s := setup(t)
	var entries []UpdateEntry
	for i := 0; i < 1000; i++ {
		entries = append(entries, c.Insert("ns", "w", fmt.Sprintf("in-%d", i)))
	}
	if err := s.Apply(entries); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	probes := make([]string, 2000)
	for i := range probes {
		probes[i] = fmt.Sprintf("out-%d", i)
	}
	got, err := s.Test(c.Token("ns", "w"), probes)
	if err != nil {
		t.Fatalf("Test: %v", err)
	}
	fp := 0
	for _, m := range got {
		if m {
			fp++
		}
	}
	// Designed rate ~1e-7 at n=1000; even 1% would indicate a geometry bug.
	if fp > 2 {
		t.Fatalf("false positives = %d / 2000", fp)
	}
}

func TestFilterSize(t *testing.T) {
	c, s := setup(t)
	s.Apply([]UpdateEntry{c.Insert("ns", "w", "d1")})
	n, err := s.FilterSize(c.Token("ns", "w"))
	if err != nil {
		t.Fatalf("FilterSize: %v", err)
	}
	if n == 0 || n > Hashes {
		t.Fatalf("FilterSize = %d, want 1..%d", n, Hashes)
	}
}

func BenchmarkInsert(b *testing.B) {
	c, s := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Apply([]UpdateEntry{c.Insert("ns", "w", fmt.Sprintf("d%d", i))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTest100(b *testing.B) {
	c, s := setup(b)
	var entries []UpdateEntry
	ids := make([]string, 100)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%d", i)
		entries = append(entries, c.Insert("ns", "w", ids[i]))
	}
	s.Apply(entries)
	tok := c.Token("ns", "w")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Test(tok, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProbePositionsAreAtRestStable pins the probe derivation stored filters
// were written with: position h of id is PRF(probeKey, h || id) mod
// FilterBits, whichever way the PRF is keyed.
func TestProbePositionsAreAtRestStable(t *testing.T) {
	var pk primitives.Key
	for i := range pk {
		pk[i] = byte(i)
	}
	p := newProber(pk)
	for _, id := range []string{"", "d1", "a-much-longer-identifier-than-the-scratch-buffer-was-sized-for-0123456789#17"} {
		got := p.positions(id)
		for h := uint64(0); h < Hashes; h++ {
			if want := primitives.PRFUint64(pk, primitives.Uint64Bytes(h), []byte(id)) % FilterBits; got[h] != want {
				t.Errorf("position %d of %q = %d, want %d", h, id, got[h], want)
			}
		}
	}
}
