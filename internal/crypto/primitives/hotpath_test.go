package primitives

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"sync"
	"testing"
)

// TestPRFMatchesBaseline pins the pooled PRF to a fresh stdlib HMAC across
// buffer reuse.
func TestPRFMatchesBaseline(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{[]byte("namespace"), {0}, []byte("keyword")}

	ref := hmac.New(sha256.New, key[:])
	for _, d := range data {
		ref.Write(d)
	}
	want := ref.Sum(nil)

	if got := PRF(key, data...); !bytes.Equal(got, want) {
		t.Fatalf("pooled PRF = %x, want %x", got, want)
	}
	// Repeat to exercise the Reset path of a recycled HMAC state.
	if got := PRF(key, data...); !bytes.Equal(got, want) {
		t.Fatalf("recycled PRF = %x, want %x", got, want)
	}
	buf := make([]byte, 0, PRFSize)
	if got := PRFInto(buf, key, data...); !bytes.Equal(got, want) {
		t.Fatalf("PRFInto = %x, want %x", got, want)
	}
	prefix := []byte("prefix")
	out := PRFInto(append([]byte(nil), prefix...), key, data...)
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
		t.Fatalf("PRFInto with prefix = %x", out)
	}
}

// TestDeriveKeyMemoMatchesBaseline pins the memoized DeriveKey to a direct
// HKDF over the same master and label.
func TestDeriveKeyMemoMatchesBaseline(t *testing.T) {
	master, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := HKDF(master[:], nil, []byte("label-a"), KeySize)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := DeriveKey(master, "label-a")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("memoized DeriveKey = %x, want %x", got, want)
		}
	}
}

func TestSealIntoRoundTrip(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	aead, err := NewAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the quick brown fox")
	ad := []byte("assoc")
	buf := make([]byte, 0, NonceSize+len(pt)+TagSize)
	ct, err := aead.SealInto(buf, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := aead.Open(ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip = %q, want %q", got, pt)
	}
	// With a prefix already in dst, the frame must append after it.
	prefix := []byte("hdr")
	out, err := aead.SealInto(append([]byte(nil), prefix...), pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatalf("SealInto clobbered prefix: %q", out[:len(prefix)])
	}
	if got, err := aead.Open(out[len(prefix):], nil); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("SealInto-with-prefix round trip = %q, %v", got, err)
	}
}

// TestOpenInto: the plaintext is appended after whatever dst already holds
// (the document path keeps the associated data there), the associated data
// may alias that prefix, and a failed open returns nothing.
func TestOpenInto(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	aead, err := NewAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the quick brown fox")
	id := []byte("doc-0042")
	blob, err := aead.Seal(pt, id)
	if err != nil {
		t.Fatal(err)
	}
	scratch := append(make([]byte, 0, 64), id...)
	out, err := aead.OpenInto(scratch, blob, scratch[:len(id)])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(id)], id) || !bytes.Equal(out[len(id):], pt) {
		t.Fatalf("OpenInto = %q, want %q followed by %q", out, id, pt)
	}
	if &out[0] != &scratch[0] {
		t.Error("OpenInto reallocated a dst with enough capacity")
	}
	if got, err := aead.OpenInto(nil, blob, id); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("OpenInto(nil) = %q, %v", got, err)
	}
	blob[len(blob)-1] ^= 1
	if got, err := aead.OpenInto(scratch, blob, id); !errors.Is(err, ErrAuthentication) || got != nil {
		t.Fatalf("OpenInto of a tampered blob = %q, %v", got, err)
	}
	if got, err := aead.OpenInto(scratch, blob[:NonceSize], id); !errors.Is(err, ErrCiphertext) || got != nil {
		t.Fatalf("OpenInto of a short blob = %q, %v", got, err)
	}
	if raceEnabled {
		return
	}
	blob[len(blob)-1] ^= 1
	if got := testing.AllocsPerRun(200, func() {
		if _, err := aead.OpenInto(scratch, blob, scratch[:len(id)]); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("OpenInto allocs/op = %.1f, want 0", got)
	}
}

// TestHotPathAllocs pins the allocation counts of the PRF, AEAD.Seal and
// DET.Encrypt hot paths so regressions show up as test failures rather
// than as GC pressure in production. The ceilings account for one cost
// outside this package's control: an internal allocation in the stdlib's
// GCM Seal. Skipped under -race, where sync.Pool deliberately drops items.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("allocation-regression-probe")

	// PRFInto with a caller buffer allocates nothing once the HMAC state
	// pool is warm (7+ allocs without pooling).
	buf := make([]byte, 0, PRFSize)
	PRFInto(buf, key, data) // warm the pool outside the measurement
	if got := testing.AllocsPerRun(200, func() {
		PRFInto(buf, key, data)
	}); got != 0 {
		t.Errorf("PRFInto allocs/op = %.1f, want 0", got)
	}
	// PRF (allocating variant): the output slice.
	if got := testing.AllocsPerRun(200, func() {
		PRF(key, data)
	}); got > 1 {
		t.Errorf("PRF allocs/op = %.1f, want <= 1", got)
	}

	aead, err := NewAEAD(key)
	if err != nil {
		t.Fatal(err)
	}
	sealBuf := make([]byte, 0, NonceSize+len(data)+TagSize)
	if got := testing.AllocsPerRun(200, func() {
		if _, err := aead.SealInto(sealBuf, data, nil); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("SealInto allocs/op = %.1f, want <= 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := aead.Seal(data, nil); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("Seal allocs/op = %.1f, want <= 2", got)
	}

	encKey, _ := NewRandomKey()
	macKey, _ := NewRandomKey()
	det, err := NewDET(encKey, macKey)
	if err != nil {
		t.Fatal(err)
	}
	det.Encrypt(data) // warm the MAC pool for macKey
	if got := testing.AllocsPerRun(200, func() {
		det.Encrypt(data)
	}); got > 2 {
		t.Errorf("DET.Encrypt allocs/op = %.1f, want <= 2", got)
	}
}

// TestPRFStateMatchesPRF: a keyed state computes the same function as
// PRFInto over the concatenated input, stays correct across reuse, appends
// without allocating, and takes no slot in the HMAC pool — 10 000 distinct
// short-lived keys later a long-lived key still gets its pooled state.
func TestPRFStateMatchesPRF(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	s := NewPRFState(key)
	for _, in := range [][2][]byte{{[]byte("t"), Uint64Bytes(7)}, {nil, nil}, {[]byte("emm-shared"), bytes.Repeat([]byte{9}, 200)}} {
		joined := append(append([]byte(nil), in[0]...), in[1]...)
		got := s.Append([]byte("prefix/"), joined)
		want := PRFInto([]byte("prefix/"), key, in[0], in[1])
		if !bytes.Equal(got, want) {
			t.Fatalf("PRFState.Append(%q) = %x, want %x", joined, got, want)
		}
	}
	if raceEnabled {
		return
	}
	data := make([]byte, 9) // heap memory, as a walk's input buffer is
	buf := make([]byte, 0, PRFSize)
	if got := testing.AllocsPerRun(200, func() { s.Append(buf, data) }); got != 0 {
		t.Errorf("PRFState.Append allocs/op = %.1f, want 0", got)
	}

	for i := 0; i < 10000; i++ {
		k := PRFKey(key, Uint64Bytes(uint64(i)))
		NewPRFState(k).Append(buf, data)
	}
	fresh, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	PRFInto(buf, fresh, data)
	if got := testing.AllocsPerRun(200, func() { PRFInto(buf, fresh, data) }); got > 1 {
		t.Errorf("PRFInto on a key first used after 10 000 keyed states = %.1f allocs/op, want <= 1", got)
	}
}

// TestPooledPRFState: a state borrowed from the HMAC pool computes the same
// function as PRFInto, and a borrow, a run of evaluations and the release
// allocate nothing once the key's pool is warm. Release on a state of its
// own does nothing.
func TestPooledPRFState(t *testing.T) {
	key, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 60) // heap memory, as a walk's input buffer is
	buf := make([]byte, 0, PRFSize)
	for i := 0; i < 3; i++ {
		data[0] = byte(i)
		s := PooledPRFState(key)
		got := s.Append(buf, data)
		if want := PRFInto(nil, key, data); !bytes.Equal(got, want) {
			t.Fatalf("PooledPRFState.Append = %x, want %x", got, want)
		}
		s.Release()
	}
	own := NewPRFState(key)
	own.Release()
	if got, want := own.Append(nil, data), PRFInto(nil, key, data); !bytes.Equal(got, want) {
		t.Fatalf("NewPRFState after Release = %x, want %x", got, want)
	}
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(200, func() {
		s := PooledPRFState(key)
		for i := 0; i < 4; i++ {
			s.Append(buf, data)
		}
		s.Release()
	}); got != 0 {
		t.Errorf("PooledPRFState borrow, 4 evaluations, release allocs/op = %.1f, want 0", got)
	}
}

// TestMACPoolConcurrent hammers the pooled PRF from parallel goroutines
// under -race, over more distinct keys than one pool shard holds so both
// the pooled and fallback paths run.
func TestMACPoolConcurrent(t *testing.T) {
	const keys = 128
	ks := make([]Key, keys)
	want := make([][]byte, keys)
	for i := range ks {
		k, err := NewRandomKey()
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = k
		want[i] = PRF(k, []byte{byte(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := iter % keys
				if got := PRF(ks[i], []byte{byte(i)}); !bytes.Equal(got, want[i]) {
					t.Errorf("concurrent PRF mismatch for key %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkPRFInto(b *testing.B) {
	key, _ := NewRandomKey()
	data := []byte("benchmark-keyword")
	buf := make([]byte, 0, PRFSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PRFInto(buf, key, data)
	}
}

func BenchmarkSealInto(b *testing.B) {
	key, _ := NewRandomKey()
	aead, _ := NewAEAD(key)
	pt := make([]byte, 256)
	buf := make([]byte, 0, NonceSize+len(pt)+TagSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aead.SealInto(buf, pt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
