package paillier

import (
	"math/big"
	"sync"
	"testing"
)

// testKeyBits keeps pool tests fast; correctness does not depend on size.
const testKeyBits = 512

func TestEncryptWithPoolRoundTrips(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	sk.EnableRandPool(8)
	if err := sk.FillRandPool(); err != nil {
		t.Fatal(err)
	}
	if got := sk.RandPoolLen(); got != 8 {
		t.Fatalf("RandPoolLen = %d, want 8", got)
	}
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		ct, err := sk.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.DecryptInt64(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip of %d = %d", v, got)
		}
	}
	// Drain past capacity so the inline fallback path runs too.
	for i := 0; i < 20; i++ {
		ct, err := sk.EncryptInt64(7)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sk.DecryptInt64(ct); err != nil || got != 7 {
			t.Fatalf("drained round trip = %d, %v", got, err)
		}
	}
}

// TestRandPoolConcurrent hammers pooled encryption from parallel goroutines
// under -race: draws, refills, and inline fallbacks all interleave.
func TestRandPoolConcurrent(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	sk.EnableRandPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				v := int64(g*100 + i)
				ct, err := sk.EncryptInt64(v)
				if err != nil {
					t.Errorf("Encrypt(%d): %v", v, err)
					return
				}
				got, err := sk.DecryptInt64(ct)
				if err != nil || got != v {
					t.Errorf("round trip of %d = %d, %v", v, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkPaillierEncrypt measures the offline/online split on the
// private-key path: "inline" is a key without a pool, paying the two
// half-width exponentiations per op; "pooled-online" times only the online
// phase (one mulmod) against precomputed masks, which is what a warm
// randomness pool delivers per Encrypt. Masks are cycled rather than
// refilled so the offline phase stays outside the measurement regardless
// of b.N (reusing a mask is benchmark-only, never done by the real pool).
func BenchmarkPaillierEncrypt(b *testing.B) {
	sk, err := GenerateKey(1024)
	if err != nil {
		b.Fatal(err)
	}
	v := big.NewInt(123456)
	b.Run("inline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sk.Encrypt(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled-online", func(b *testing.B) {
		masks := make([]*big.Int, 64)
		for i := range masks {
			m, err := sk.newMask()
			if err != nil {
				b.Fatal(err)
			}
			masks[i] = m
		}
		m, err := sk.encode(v)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sk.encryptWithMask(m, masks[i%len(masks)])
		}
	})
}
