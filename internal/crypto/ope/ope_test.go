package ope

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"datablinder/internal/crypto/primitives"
)

func cipher(t testing.TB) *Cipher {
	t.Helper()
	k, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	return New(k)
}

func TestDeterminism(t *testing.T) {
	c := cipher(t)
	a := c.EncryptUint64(123456)
	b := c.EncryptUint64(123456)
	if !bytes.Equal(a, b) {
		t.Fatal("OPE not deterministic")
	}
}

func TestKeysDiffer(t *testing.T) {
	c1, c2 := cipher(t), cipher(t)
	if bytes.Equal(c1.EncryptUint64(42), c2.EncryptUint64(42)) {
		t.Fatal("two keys produced identical ciphertexts")
	}
}

func TestOrderPreservationFixed(t *testing.T) {
	c := cipher(t)
	values := []uint64{0, 1, 2, 100, 1000, 1 << 20, 1 << 40, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	cts := make([][]byte, len(values))
	for i, v := range values {
		cts[i] = c.EncryptUint64(v)
		if len(cts[i]) != CiphertextSize {
			t.Fatalf("ciphertext size = %d", len(cts[i]))
		}
	}
	for i := 1; i < len(values); i++ {
		if Compare(cts[i-1], cts[i]) >= 0 {
			t.Fatalf("order violated: Enc(%d) >= Enc(%d)", values[i-1], values[i])
		}
	}
}

func TestOrderPreservationQuick(t *testing.T) {
	c := cipher(t)
	f := func(a, b uint64) bool {
		ca, cb := c.EncryptUint64(a), c.EncryptUint64(b)
		switch {
		case a < b:
			return Compare(ca, cb) < 0
		case a > b:
			return Compare(ca, cb) > 0
		default:
			return Compare(ca, cb) == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSignedEmbedding(t *testing.T) {
	c := cipher(t)
	values := []int64{math.MinInt64, -1000, -1, 0, 1, 1000, math.MaxInt64}
	for i := 1; i < len(values); i++ {
		a := c.EncryptInt64(values[i-1])
		b := c.EncryptInt64(values[i])
		if Compare(a, b) >= 0 {
			t.Fatalf("signed order violated at %d < %d", values[i-1], values[i])
		}
	}
}

func TestDecrypt(t *testing.T) {
	c := cipher(t)
	for _, v := range []uint64{0, 7, 1 << 33, math.MaxUint64} {
		ct := c.EncryptUint64(v)
		got, err := c.DecryptUint64(ct)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
	for _, v := range []int64{math.MinInt64, -42, 0, 42, math.MaxInt64} {
		ct := c.EncryptInt64(v)
		got, err := c.DecryptInt64(ct)
		if err != nil || got != v {
			t.Fatalf("signed round trip %d -> %d, %v", v, got, err)
		}
	}
}

func TestDecryptErrors(t *testing.T) {
	c := cipher(t)
	if _, err := c.DecryptUint64([]byte{1, 2, 3}); err != ErrCiphertextSize {
		t.Fatalf("short ciphertext: %v", err)
	}
	// A ciphertext value that no plaintext maps to (between two leaf images)
	// must be rejected: flipping the last bit of a real ciphertext is
	// overwhelmingly likely to land in a gap.
	ct := c.EncryptUint64(12345)
	mut := append([]byte(nil), ct...)
	mut[CiphertextSize-1] ^= 1
	if _, err := c.DecryptUint64(mut); err == nil {
		got, _ := c.DecryptUint64(mut)
		if c2 := c.EncryptUint64(got); !bytes.Equal(c2, mut) {
			t.Fatal("decrypt returned wrong plaintext for gap ciphertext")
		}
	}
}

func TestCompareIsLexicographic(t *testing.T) {
	// Ciphertexts are fixed-width big-endian, so range predicates can be
	// evaluated by plain byte comparison on the cloud.
	c := cipher(t)
	a, b := c.EncryptUint64(10), c.EncryptUint64(20)
	if bytes.Compare(a, b) != Compare(a, b) {
		t.Fatal("Compare disagrees with bytes.Compare")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c := cipher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncryptUint64(uint64(i) * 2654435761)
	}
}

// TestEncryptAllocs pins an encryption at the walk state and the
// ciphertext: the keyed PRF comes from the HMAC pool and the 128-bit
// arithmetic stays in registers. Skipped under -race, where sync.Pool
// deliberately drops items.
func TestEncryptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := cipher(t)
	c.EncryptUint64(1) // warm the HMAC pool for the key
	var m uint64
	if got := testing.AllocsPerRun(200, func() {
		m += 0x9e3779b97f4a7c15
		c.EncryptUint64(m)
	}); got > 4 {
		t.Errorf("EncryptUint64 allocs/op = %.1f, want <= 4", got)
	}
}

func bigOf(a u128) *big.Int {
	v := new(big.Int).SetUint64(a.hi)
	return v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(a.lo))
}

// TestU128ModMatchesBig checks the two-word remainder against math/big on
// divisors of one word, of two words, and next to the powers of two where
// the quotient estimate is most likely to be off by one.
func TestU128ModMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(bits int) u128 {
		switch {
		case bits <= 0:
			return u128{}
		case bits <= 64:
			return u128{lo: rng.Uint64() >> (64 - bits)}
		default:
			return u128{hi: rng.Uint64() >> (128 - bits), lo: rng.Uint64()}
		}
	}
	edges := []u128{{lo: 1}, {lo: math.MaxUint64}, {hi: 1}, {hi: 1, lo: 1}, {hi: 1 << 63}, {hi: math.MaxUint64, lo: math.MaxUint64}, rangeMax}
	for i := 0; i < 20000; i++ {
		a, b := random(1+rng.Intn(128)), random(1+rng.Intn(128))
		if i < len(edges)*len(edges) {
			a, b = edges[i/len(edges)], edges[i%len(edges)]
		} else if i%3 == 0 {
			b = u128{}.sub(random(rng.Intn(64))) // just under 2^128
		}
		if b == (u128{}) {
			continue
		}
		want := new(big.Int).Mod(bigOf(a), bigOf(b))
		if got := a.mod(b); bigOf(got).Cmp(want) != 0 {
			t.Fatalf("%#x mod %#x = %#x, want %#x", bigOf(a), bigOf(b), bigOf(got), want)
		}
	}
}

// TestUniformMatchesBigReference runs the sampler against the math/big
// rejection rule it replaced — bound 2^128, limit ⌊2^128/size⌋·size, draw
// mod size — on windows up to 2^128 - 1 wide, where up to half of all
// draws are rejected, as well as on the narrow ones the cipher uses.
func TestUniformMatchesBigReference(t *testing.T) {
	c := cipher(t)
	rng := rand.New(rand.NewSource(2))
	w := c.newWalk()
	defer w.prf.Release()
	ref := func(lo, hi *big.Int, seed []byte) *big.Int {
		size := new(big.Int).Sub(hi, lo)
		size.Add(size, big.NewInt(1))
		bound := new(big.Int).Lsh(big.NewInt(1), 128)
		limit := new(big.Int).Div(bound, size)
		limit.Mul(limit, size)
		for ctr := uint64(0); ; ctr++ {
			draw := primitives.PRF(c.key, seed, primitives.Uint64Bytes(ctr))
			v := new(big.Int).SetBytes(draw[:16])
			if v.Cmp(limit) >= 0 {
				continue
			}
			v.Mod(v, size)
			return v.Add(v, lo)
		}
	}
	for i := 0; i < 2000; i++ {
		var lo, hi u128
		switch i % 4 {
		case 0: // a window of the cipher's range
			lo = u128{hi: rng.Uint64() >> 33, lo: rng.Uint64()}
			hi = lo.add(u128{hi: rng.Uint64() >> 33, lo: rng.Uint64()})
		case 1: // a few values
			lo = u128{lo: rng.Uint64() >> 1}
			hi = lo.add(u128{lo: uint64(rng.Intn(5))})
		default: // over 2^127 wide
			lo = u128{lo: rng.Uint64() >> 1}
			hi = u128{hi: 1<<63 | rng.Uint64()>>1, lo: rng.Uint64()}
		}
		dlo, dhi := rng.Uint64(), rng.Uint64()
		rlo, rhi := u128{hi: rng.Uint64() >> 32, lo: rng.Uint64()}, u128{hi: rng.Uint64() >> 32, lo: rng.Uint64()}
		got := w.uniform(lo, hi, dlo, dhi, rlo, rhi)
		seed := append([]byte(nil), w.in[:4*seedField]...)
		if want := ref(bigOf(lo), bigOf(hi), seed); bigOf(got).Cmp(want) != 0 {
			t.Fatalf("uniform(%#x, %#x) = %#x, want %#x", bigOf(lo), bigOf(hi), bigOf(got), want)
		}
	}
}
