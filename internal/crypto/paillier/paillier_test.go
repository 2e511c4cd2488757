package paillier

import (
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// testKey caches one key pair across tests; keygen dominates test time.
var (
	testKeyOnce sync.Once
	testKey     *PrivateKey
)

func key(t testing.TB) *PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		k, err := GenerateKey(512)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testKey = k
	})
	return testKey
}

func TestGenerateKeyRejectsSmall(t *testing.T) {
	if _, err := GenerateKey(128); err != ErrKeySize {
		t.Fatalf("GenerateKey(128) = %v, want ErrKeySize", err)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := key(t)
	values := []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), 9223372036854775807, -9223372036854775808}
	for _, v := range values {
		ct, err := sk.EncryptInt64(v)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", v, err)
		}
		got, err := sk.DecryptInt64(ct)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	sk := key(t)
	c1, _ := sk.EncryptInt64(7)
	c2, _ := sk.EncryptInt64(7)
	if c1.C.Cmp(c2.C) == 0 {
		t.Fatal("two encryptions of 7 are identical")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := key(t)
	tests := []struct{ a, b int64 }{
		{1, 2}, {0, 0}, {-5, 3}, {100, -200}, {1 << 30, 1 << 30},
	}
	for _, tt := range tests {
		ca, _ := sk.EncryptInt64(tt.a)
		cb, _ := sk.EncryptInt64(tt.b)
		sum, err := Add(ca, cb)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		got, err := sk.DecryptInt64(sum)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got != tt.a+tt.b {
			t.Fatalf("Dec(Enc(%d)*Enc(%d)) = %d, want %d", tt.a, tt.b, got, tt.a+tt.b)
		}
	}
}

func TestHomomorphicAddQuick(t *testing.T) {
	sk := key(t)
	f := func(a, b int32) bool {
		ca, err := sk.EncryptInt64(int64(a))
		if err != nil {
			return false
		}
		cb, err := sk.EncryptInt64(int64(b))
		if err != nil {
			return false
		}
		sum, err := Add(ca, cb)
		if err != nil {
			return false
		}
		got, err := sk.DecryptInt64(sum)
		return err == nil && got == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAddPlain(t *testing.T) {
	sk := key(t)
	ct, _ := sk.EncryptInt64(10)
	ct2, err := AddPlain(ct, big.NewInt(-3))
	if err != nil {
		t.Fatalf("AddPlain: %v", err)
	}
	got, _ := sk.DecryptInt64(ct2)
	if got != 7 {
		t.Fatalf("AddPlain = %d, want 7", got)
	}
}

func TestMulPlain(t *testing.T) {
	sk := key(t)
	tests := []struct{ v, k, want int64 }{
		{6, 7, 42}, {5, 0, 0}, {-4, 3, -12}, {4, -3, -12}, {-4, -3, 12},
	}
	for _, tt := range tests {
		ct, _ := sk.EncryptInt64(tt.v)
		prod, err := MulPlain(ct, big.NewInt(tt.k))
		if err != nil {
			t.Fatalf("MulPlain: %v", err)
		}
		got, _ := sk.DecryptInt64(prod)
		if got != tt.want {
			t.Fatalf("Dec(Enc(%d)^%d) = %d, want %d", tt.v, tt.k, got, tt.want)
		}
	}
}

func TestMessageRange(t *testing.T) {
	sk := key(t)
	tooBig := new(big.Int).Rsh(sk.N, 1) // (n-1)/2 + 1 > maxAbs
	tooBig.Add(tooBig, big.NewInt(1))
	if _, err := sk.Encrypt(tooBig); err != ErrMessageRange {
		t.Fatalf("Encrypt(overflow) = %v, want ErrMessageRange", err)
	}
	neg := new(big.Int).Neg(tooBig)
	if _, err := sk.Encrypt(neg); err != ErrMessageRange {
		t.Fatalf("Encrypt(-overflow) = %v, want ErrMessageRange", err)
	}
	// The boundary value itself must round-trip.
	max := sk.maxAbs()
	ct, err := sk.Encrypt(max)
	if err != nil {
		t.Fatalf("Encrypt(maxAbs): %v", err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil || got.Cmp(max) != 0 {
		t.Fatalf("maxAbs round trip = %s, %v", got, err)
	}
}

func TestMismatchedKeys(t *testing.T) {
	sk1 := key(t)
	sk2, err := GenerateKey(512)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	a, _ := sk1.EncryptInt64(1)
	b, _ := sk2.EncryptInt64(2)
	if _, err := Add(a, b); err != ErrMismatchedKeys {
		t.Fatalf("Add across keys = %v, want ErrMismatchedKeys", err)
	}
}

func TestCiphertextSerialization(t *testing.T) {
	sk := key(t)
	ct, _ := sk.EncryptInt64(123)
	b := ct.Bytes()
	ct2, err := CiphertextFromBytes(&sk.PublicKey, b)
	if err != nil {
		t.Fatalf("CiphertextFromBytes: %v", err)
	}
	got, _ := sk.DecryptInt64(ct2)
	if got != 123 {
		t.Fatalf("serialized round trip = %d", got)
	}
	if _, err := CiphertextFromBytes(&sk.PublicKey, nil); err == nil {
		t.Fatal("empty ciphertext accepted")
	}
	huge := new(big.Int).Set(sk.N2).Bytes()
	if _, err := CiphertextFromBytes(&sk.PublicKey, huge); err == nil {
		t.Fatal("out-of-range ciphertext accepted")
	}
}

func TestPublicKeySerialization(t *testing.T) {
	sk := key(t)
	pk2, err := PublicKeyFromN(sk.PublicKey.Bytes())
	if err != nil {
		t.Fatalf("PublicKeyFromN: %v", err)
	}
	// Cloud-side key must produce ciphertexts the gateway can decrypt and
	// combine with gateway-side ciphertexts.
	ct, err := pk2.EncryptInt64(55)
	if err != nil {
		t.Fatalf("Encrypt under reconstructed key: %v", err)
	}
	got, err := sk.DecryptInt64(&Ciphertext{C: ct.C, pk: &sk.PublicKey})
	if err != nil || got != 55 {
		t.Fatalf("cross-serialization round trip = %d, %v", got, err)
	}
	if _, err := PublicKeyFromN([]byte{1}); err == nil {
		t.Fatal("tiny modulus accepted")
	}
}

func TestDecryptRejectsGarbage(t *testing.T) {
	sk := key(t)
	if _, err := sk.Decrypt(&Ciphertext{C: big.NewInt(0), pk: &sk.PublicKey}); err == nil {
		t.Fatal("zero ciphertext accepted")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: sk.N2, pk: &sk.PublicKey}); err == nil {
		t.Fatal("ciphertext = n² accepted")
	}
}

// TestAverageProtocol mirrors the middleware's Average aggregate: the cloud
// homomorphically sums and counts; the gateway decrypts and divides.
func TestAverageProtocol(t *testing.T) {
	sk := key(t)
	values := []int64{60, 72, 66, 80} // heart rates
	sum := sk.NewAccumulator()
	for _, v := range values {
		ct, _ := sk.EncryptInt64(v)
		if err := sum.Add(ct.Bytes()); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	total, _ := sk.DecryptInt64(sum.Ciphertext())
	avg := float64(total) / float64(len(values))
	if avg != 69.5 {
		t.Fatalf("average = %g, want 69.5", avg)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	sk := key(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.EncryptInt64(12345); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	sk := key(b)
	ct, _ := sk.EncryptInt64(12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.DecryptInt64(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomomorphicAdd(b *testing.B) {
	sk := key(b)
	x, _ := sk.EncryptInt64(1)
	y, _ := sk.EncryptInt64(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Add(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
