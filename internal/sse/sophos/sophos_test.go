package sophos

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"datablinder/internal/crypto/primitives"
	"datablinder/internal/store/kvstore"
)

// One RSA keypair for the whole test package; 2048-bit keygen is slow.
var (
	tdpOnce sync.Once
	tdp     *rsa.PrivateKey
)

func testTDP(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	tdpOnce.Do(func() {
		k, err := rsa.GenerateKey(rand.Reader, RSABits)
		if err != nil {
			t.Fatalf("rsa keygen: %v", err)
		}
		tdp = k
	})
	return tdp
}

func setup(t testing.TB) (*Client, *Server) {
	t.Helper()
	key, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	client, err := NewClientWithTDP(key, kvstore.New(), testTDP(t))
	if err != nil {
		t.Fatalf("NewClientWithTDP: %v", err)
	}
	server := NewServer(kvstore.New(), "test", client.PublicKey())
	return client, server
}

func insert(t testing.TB, c *Client, s *Server, ns, w, id string) {
	t.Helper()
	e, err := c.Insert(ns, w, id)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Insert([]Entry{e}); err != nil {
		t.Fatalf("server Insert: %v", err)
	}
}

func search(t testing.TB, c *Client, s *Server, ns, w string) []string {
	t.Helper()
	tok, ok, err := c.Token(ns, w)
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	if !ok {
		return nil
	}
	ids, err := s.Search(tok)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	sort.Strings(ids)
	return ids
}

func TestInsertSearch(t *testing.T) {
	c, s := setup(t)
	insert(t, c, s, "ns", "glucose", "d1")
	insert(t, c, s, "ns", "glucose", "d2")
	insert(t, c, s, "ns", "glucose", "d3")
	got := search(t, c, s, "ns", "glucose")
	if !reflect.DeepEqual(got, []string{"d1", "d2", "d3"}) {
		t.Fatalf("Search = %v", got)
	}
}

func TestEmptyKeyword(t *testing.T) {
	c, s := setup(t)
	if got := search(t, c, s, "ns", "nothing"); len(got) != 0 {
		t.Fatalf("Search(empty) = %v", got)
	}
}

func TestKeywordIsolation(t *testing.T) {
	c, s := setup(t)
	insert(t, c, s, "ns", "w1", "a")
	insert(t, c, s, "ns", "w2", "b")
	if got := search(t, c, s, "ns", "w1"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("w1 = %v", got)
	}
	if got := search(t, c, s, "ns", "w2"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("w2 = %v", got)
	}
}

func TestManyInsertsChainWalk(t *testing.T) {
	// The server must walk a long TDP chain correctly.
	c, s := setup(t)
	var want []string
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("d%02d", i)
		insert(t, c, s, "ns", "w", id)
		want = append(want, id)
	}
	got := search(t, c, s, "ns", "w")
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Search returned %d ids, want %d", len(got), len(want))
	}
}

func TestForwardPrivacyUnlinkability(t *testing.T) {
	c, _ := setup(t)
	e1, err := c.Insert("ns", "w", "d1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.Insert("ns", "w", "d2")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(e1.Addr, e2.Addr) {
		t.Fatal("two inserts share an address")
	}
}

func TestIDTooLong(t *testing.T) {
	c, _ := setup(t)
	if _, err := c.Insert("ns", "w", strings.Repeat("x", MaxIDLen+1)); err != ErrIDTooLong {
		t.Fatalf("Insert(long id) = %v", err)
	}
}

func TestMaxLengthID(t *testing.T) {
	c, s := setup(t)
	id := strings.Repeat("z", MaxIDLen)
	insert(t, c, s, "ns", "w", id)
	got := search(t, c, s, "ns", "w")
	if !reflect.DeepEqual(got, []string{id}) {
		t.Fatalf("Search = %v", got)
	}
}

func TestServerSeesOnlyOpaqueData(t *testing.T) {
	key, _ := primitives.NewRandomKey()
	store := kvstore.New()
	c, err := NewClientWithTDP(key, kvstore.New(), testTDP(t))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(store, "ns", c.PublicKey())
	e, err := c.Insert("ns", "oncology", "patient-42")
	if err != nil {
		t.Fatal(err)
	}
	s.Insert([]Entry{e})
	keys, _ := store.Keys(nil)
	for _, k := range keys {
		if strings.Contains(string(k), "oncology") || strings.Contains(string(k), "patient-42") {
			t.Fatal("plaintext leaked into server key")
		}
		v, _, _ := store.Get(k)
		if strings.Contains(string(v), "patient-42") {
			t.Fatal("plaintext leaked into server value")
		}
	}
}

func TestSearchRejectsBadToken(t *testing.T) {
	_, s := setup(t)
	if _, err := s.Search(SearchToken{KeywordKey: []byte{1}, ST: []byte{2}, Count: 1}); err != ErrBadToken {
		t.Fatalf("bad token error = %v", err)
	}
}

func TestStatePersistenceAcrossClients(t *testing.T) {
	// A gateway restart (same state store + same TDP) must continue the
	// chain without breaking searchability.
	key, _ := primitives.NewRandomKey()
	state := kvstore.New()
	store := kvstore.New()
	c1, err := NewClientWithTDP(key, state, testTDP(t))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(store, "ns", c1.PublicKey())
	e, _ := c1.Insert("ns", "w", "before-restart")
	s.Insert([]Entry{e})

	c2, err := NewClientWithTDP(key, state, testTDP(t))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c2.Insert("ns", "w", "after-restart")
	if err != nil {
		t.Fatal(err)
	}
	s.Insert([]Entry{e2})

	got := search(t, c2, s, "ns", "w")
	if !reflect.DeepEqual(got, []string{"after-restart", "before-restart"}) {
		t.Fatalf("Search across restart = %v", got)
	}
}

func BenchmarkInsert(b *testing.B) {
	c, s := setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := c.Insert("ns", "w", fmt.Sprintf("d%d", i))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Insert([]Entry{e}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch100(b *testing.B) {
	c, s := setup(b)
	for i := 0; i < 100; i++ {
		e, _ := c.Insert("ns", "w", fmt.Sprintf("d%d", i))
		s.Insert([]Entry{e})
	}
	tok, _, _ := c.Token("ns", "w")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(tok); err != nil {
			b.Fatal(err)
		}
	}
}

// TestChainPRFIsAtRestStable pins the address and pad derivation stored
// cells were written with, whichever way the PRF is keyed.
func TestChainPRFIsAtRestStable(t *testing.T) {
	var kw primitives.Key
	for i := range kw {
		kw[i] = byte(i)
	}
	st := bytes.Repeat([]byte{0xa5}, stBytes)
	d := newChainPRF(kw)
	for round := 0; round < 2; round++ { // the state is reused across cells
		if got, want := d.h1(st), primitives.PRF(kw, []byte{1}, st); !bytes.Equal(got, want) {
			t.Errorf("h1 = %x, want %x", got, want)
		}
		var want []byte
		for blk := uint64(0); len(want) < idSlot; blk++ {
			want = append(want, primitives.PRF(kw, []byte{2}, st, primitives.Uint64Bytes(blk))...)
		}
		if got := d.h2(st); !bytes.Equal(got, want[:idSlot]) {
			t.Errorf("h2 = %x, want %x", got, want[:idSlot])
		}
	}
}
