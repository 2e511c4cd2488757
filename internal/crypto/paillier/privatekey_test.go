package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"strconv"
	"testing"
)

// textbook is the reference decryption m = L(c^λ mod n²)·μ mod n that the
// CRT path must agree with. Production code no longer carries λ and μ.
type textbook struct {
	sk         *PrivateKey
	lambda, mu *big.Int
}

func newTextbook(sk *PrivateKey) textbook {
	lambda := new(big.Int).Mul(sk.pm1, sk.qm1)
	lambda.Div(lambda, new(big.Int).GCD(nil, nil, sk.pm1, sk.qm1))
	mu := new(big.Int).ModInverse(textbookL(new(big.Int).Exp(sk.G, lambda, sk.N2), sk.N), sk.N)
	return textbook{sk: sk, lambda: lambda, mu: mu}
}

func textbookL(x, n *big.Int) *big.Int {
	l := new(big.Int).Sub(x, one)
	return l.Div(l, n)
}

func (tb textbook) decrypt(ct *Ciphertext) *big.Int {
	m := textbookL(new(big.Int).Exp(ct.C, tb.lambda, tb.sk.N2), tb.sk.N)
	m.Mul(m, tb.mu)
	m.Mod(m, tb.sk.N)
	return tb.sk.decode(m)
}

// isResidue reports whether x is an n-th residue mod n²: x^λ ≡ 1.
func (tb textbook) isResidue(x *big.Int) bool {
	return new(big.Int).Exp(x, tb.lambda, tb.sk.N2).Cmp(one) == 0
}

// randSigned draws a message uniform in [-maxAbs, maxAbs].
func randSigned(t testing.TB, pk *PublicKey) *big.Int {
	t.Helper()
	v, err := rand.Int(rand.Reader, pk.N) // [0, n-1] = [0, 2·maxAbs]
	if err != nil {
		t.Fatal(err)
	}
	return v.Sub(v, pk.maxAbs())
}

func TestCRTDecryptMatchesTextbook(t *testing.T) {
	for _, bits := range []int{512, 1024} {
		sk, err := GenerateKey(bits)
		if err != nil {
			t.Fatal(err)
		}
		tb := newTextbook(sk)
		check := func(what string, ct *Ciphertext, want *big.Int) {
			t.Helper()
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatalf("%d bits, %s: Decrypt: %v", bits, what, err)
			}
			if ref := tb.decrypt(ct); got.Cmp(ref) != 0 {
				t.Fatalf("%d bits, %s: CRT %s != textbook %s", bits, what, got, ref)
			}
			if want != nil && got.Cmp(want) != 0 {
				t.Fatalf("%d bits, %s: decrypted %s, want %s", bits, what, got, want)
			}
		}
		enc := func(v *big.Int) *Ciphertext {
			t.Helper()
			// Alternate the two encryption paths: both must decrypt alike.
			encrypt := sk.Encrypt
			if v.Bit(0) == 1 {
				encrypt = sk.PublicKey.Encrypt
			}
			ct, err := encrypt(v)
			if err != nil {
				t.Fatal(err)
			}
			return ct
		}

		max := sk.maxAbs()
		min := new(big.Int).Neg(max)
		for _, v := range []*big.Int{max, min, big.NewInt(0), big.NewInt(1), big.NewInt(-1)} {
			check("boundary", enc(v), v)
		}
		for i := 0; i < 25; i++ {
			v := randSigned(t, &sk.PublicKey)
			check("random", enc(v), v)
		}
		// Homomorphic results wrap mod n; agreement with the textbook is the
		// point, the expected value is checked where it cannot wrap.
		for i := 0; i < 10; i++ {
			a, b := randSigned(t, &sk.PublicKey), randSigned(t, &sk.PublicKey)
			sum, err := Add(enc(a), enc(b))
			if err != nil {
				t.Fatal(err)
			}
			check("sum", sum, nil)
			k := big.NewInt(int64(i) - 5)
			prod, err := MulPlain(enc(a), k)
			if err != nil {
				t.Fatal(err)
			}
			check("mulplain", prod, nil)
		}
		small, err := Add(enc(big.NewInt(-40)), enc(big.NewInt(100)))
		if err != nil {
			t.Fatal(err)
		}
		check("small sum", small, big.NewInt(60))
		scaled, err := MulPlain(enc(big.NewInt(-7)), big.NewInt(6))
		if err != nil {
			t.Fatal(err)
		}
		check("small mulplain", scaled, big.NewInt(-42))
	}
}

func TestPrivateMasksAreDistinctResidues(t *testing.T) {
	// Besides the shared 512-bit key: the smallest key allowed, and one whose
	// 250-bit factors leave a partial top window in the mask tables.
	keys := []*PrivateKey{key(t)}
	for _, bits := range []int{256, 500} {
		sk, err := GenerateKey(bits)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, sk)
	}
	for _, sk := range keys {
		tb := newTextbook(sk)
		seen := make(map[string]bool)
		for i := 0; i < 200; i++ {
			mask, err := sk.newMask()
			if err != nil {
				t.Fatal(err)
			}
			if mask.Sign() <= 0 || mask.Cmp(sk.N2) >= 0 {
				t.Fatalf("mask %d out of range", i)
			}
			if !tb.isResidue(mask) {
				t.Fatalf("mask %d is not an n-th residue: mask^λ != 1 mod n²", i)
			}
			if seen[mask.String()] {
				t.Fatalf("mask %d repeats an earlier mask", i)
			}
			seen[mask.String()] = true

			v := big.NewInt(int64(i) - 100)
			m, err := sk.encode(v)
			if err != nil {
				t.Fatal(err)
			}
			if got := tb.decrypt(sk.encryptWithMask(m, mask)); got.Cmp(v) != 0 {
				t.Fatalf("ciphertext from mask %d decrypts to %s under the textbook formula, want %s", i, got, v)
			}
		}
	}
}

func TestNewPrivateKeyRejectsBadFactors(t *testing.T) {
	prime := func(bits int) *big.Int {
		t.Helper()
		p, err := rand.Prime(rand.Reader, bits)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, q := prime(256), prime(256)
	for p.Cmp(q) == 0 {
		q = prime(256)
	}
	if _, err := NewPrivateKey(p, q); err != nil {
		// gcd(n, φ(n)) ≠ 1 has probability ~2^-255 for random primes.
		t.Fatalf("valid pair rejected: %v", err)
	}
	// q ≡ 1 (mod p) makes p divide (p-1)(q-1): a mismatched pair.
	mismatched := new(big.Int)
	for k := int64(2); ; k += 2 {
		mismatched.Mul(p, big.NewInt(k))
		mismatched.Add(mismatched, one)
		if mismatched.ProbablyPrime(20) {
			break
		}
	}
	composite := new(big.Int).Mul(prime(128), prime(128))
	cases := []struct {
		name string
		p, q *big.Int
	}{
		{"p == q", p, new(big.Int).Set(p)},
		{"composite p", composite, q},
		{"composite q", p, composite},
		{"mismatched pair", p, mismatched},
		{"zero factor", new(big.Int), q},
		{"negative factor", new(big.Int).Neg(p), q},
	}
	for _, c := range cases {
		if _, err := NewPrivateKey(c.p, c.q); !errors.Is(err, ErrInvalidFactors) {
			t.Errorf("%s: err = %v, want ErrInvalidFactors", c.name, err)
		}
	}
	if _, err := NewPrivateKey(prime(64), prime(64)); !errors.Is(err, ErrKeySize) {
		t.Errorf("128-bit n: err = %v, want ErrKeySize", err)
	}
}

// TestNewPrivateKeyRebuildsFromFactors is the key-at-rest contract: {P, Q}
// alone reproduce a key that decrypts the original's ciphertexts.
func TestNewPrivateKeyRebuildsFromFactors(t *testing.T) {
	sk := key(t)
	rebuilt, err := NewPrivateKey(new(big.Int).SetBytes(sk.P.Bytes()), new(big.Int).SetBytes(sk.Q.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sk.EncryptInt64(-123456)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := CiphertextFromBytes(&rebuilt.PublicKey, ct.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := rebuilt.DecryptInt64(moved); err != nil || got != -123456 {
		t.Fatalf("rebuilt key decrypts to %d, %v", got, err)
	}
}

func TestAccumulator(t *testing.T) {
	sk := key(t)
	acc := sk.NewAccumulator()
	if acc.Bytes() != nil || acc.Ciphertext() != nil {
		t.Fatal("empty accumulator is not empty")
	}
	first, _ := sk.EncryptInt64(17)
	if err := acc.Add(first.Bytes()); err != nil {
		t.Fatal(err)
	}
	// One term: the sum is that ciphertext, byte for byte.
	if string(acc.Bytes()) != string(first.Bytes()) {
		t.Fatal("single-term sum differs from its term")
	}
	want := int64(17)
	for _, v := range []int64{-40, 0, 1 << 40, -3} {
		ct, _ := sk.EncryptInt64(v)
		if err := acc.Add(ct.Bytes()); err != nil {
			t.Fatal(err)
		}
		want += v
	}
	if got, err := sk.DecryptInt64(acc.Ciphertext()); err != nil || got != want {
		t.Fatalf("accumulated sum = %d, %v; want %d", got, err, want)
	}
	fromBytes, err := CiphertextFromBytes(&sk.PublicKey, acc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sk.DecryptInt64(fromBytes); got != want {
		t.Fatalf("serialized sum = %d, want %d", got, want)
	}
	for _, bad := range [][]byte{nil, {}, sk.N2.Bytes()} {
		if err := acc.Add(bad); !errors.Is(err, ErrInvalidCipher) {
			t.Fatalf("Add(%d bad bytes) = %v, want ErrInvalidCipher", len(bad), err)
		}
	}
	// A rejected term leaves the sum intact.
	if got, _ := sk.DecryptInt64(acc.Ciphertext()); got != want {
		t.Fatalf("sum after rejected terms = %d, want %d", got, want)
	}
}

var benchSink *big.Int

func benchKey(b *testing.B) (*PrivateKey, textbook) {
	b.Helper()
	sk, err := GenerateKey(1024)
	if err != nil {
		b.Fatal(err)
	}
	return sk, newTextbook(sk)
}

func BenchmarkMaskTextbook(b *testing.B) {
	sk, _ := benchKey(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = sk.PublicKey.newMask()
	}
}

// benchWidths runs fn as one sub-benchmark per deployed key size: 1024 bits
// (the tactic's KeyBits) and the 2048 bits its comment recommends. The keys
// are generated outside the timed sub-benchmarks.
func benchWidths(b *testing.B, fn func(b *testing.B, sk *PrivateKey)) {
	for _, bits := range []int{1024, 2048} {
		sk, err := GenerateKey(bits)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strconv.Itoa(bits), func(b *testing.B) { fn(b, sk) })
	}
}

// coldTableBytes is the size of the tables BenchmarkMaskCRT's cold arm
// cycles through: four times a 32 MiB L3.
const coldTableBytes = 128 << 20

// BenchmarkMaskCRT times a private-key mask: two fixed-base table products
// and Garner. The tables are built before the timer starts;
// BenchmarkMaskTableBuild has their cost. The warm arm draws masks back to
// back from one key, so the entries a mask reads are often cached. The cold
// arm draws them in turn from keys on the same primes whose tables, 4·bits²
// bytes a key, total coldTableBytes, so most entries come from memory, as
// when an insert's other work has run between two masks.
func BenchmarkMaskCRT(b *testing.B) {
	benchWidths(b, func(b *testing.B, sk *PrivateKey) {
		if _, err := sk.newMask(); err != nil {
			b.Fatal(err)
		}
		b.Run("warm", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink, _ = sk.newMask()
			}
		})
		var keys []*PrivateKey
		b.Run("cold", func(b *testing.B) {
			for bits := sk.N.BitLen(); len(keys) < coldTableBytes/(4*bits*bits); {
				k, err := NewPrivateKey(sk.P, sk.Q)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := k.newMask(); err != nil {
					b.Fatal(err)
				}
				keys = append(keys, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = keys[i%len(keys)].newMask()
			}
		})
	})
}

func BenchmarkDecryptTextbook(b *testing.B) {
	sk, tb := benchKey(b)
	ct, _ := sk.EncryptInt64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = tb.decrypt(ct)
	}
}

func BenchmarkDecryptCRT(b *testing.B) {
	sk, _ := benchKey(b)
	ct, _ := sk.EncryptInt64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink, _ = sk.Decrypt(ct)
	}
}

// BenchmarkDecryptInt64 times the aggregate path: one CRT half instead of
// BenchmarkDecryptCRT's two.
func BenchmarkDecryptInt64(b *testing.B) {
	sk, _ := benchKey(b)
	ct, _ := sk.EncryptInt64(12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.DecryptInt64(ct); err != nil {
			b.Fatal(err)
		}
	}
}
