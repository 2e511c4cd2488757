package paillier

import (
	"math/big"
	"sync"
	"testing"
	"time"
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

// TestRandPoolComputesOnlyWhatIsDrawn pins the filler's bookkeeping: a full
// pool drained by k draws is topped up with exactly k masks. A filler that
// computes first and looks for room second throws one away per top-up.
func TestRandPoolComputesOnlyWhatIsDrawn(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	const capacity, k = 8, 5
	sk.EnableRandPool(capacity)
	p := sk.pool
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for p.filling.Load() {
			if time.Now().After(deadline) {
				t.Fatal("background filler did not stop")
			}
			time.Sleep(time.Millisecond)
		}
		// A draw that lands while the filler is exiting leaves a gap
		// until the next draw; close it synchronously.
		if err := sk.FillRandPool(); err != nil {
			t.Fatal(err)
		}
		if got := sk.RandPoolLen(); got != capacity {
			t.Fatalf("RandPoolLen = %d, want %d", got, capacity)
		}
	}
	settle()
	if got := p.computed.Load(); got != capacity {
		t.Fatalf("filling an empty pool computed %d masks, want %d", got, capacity)
	}
	for i := 0; i < k; i++ {
		if _, err := sk.mask(); err != nil {
			t.Fatal(err)
		}
	}
	settle()
	if got := p.computed.Load() - capacity; got != k {
		t.Fatalf("%d draws from a full pool computed %d masks, want %d", k, got, k)
	}
}

// TestRandPoolRefillsFromHalfFull pins when a draw restarts the filler: not
// while the pool is at least half full, and all the way to capacity once it
// is not.
func TestRandPoolRefillsFromHalfFull(t *testing.T) {
	sk, err := GenerateKey(testKeyBits)
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 8
	sk.EnableRandPool(capacity)
	p := sk.pool
	waitFull := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for p.filling.Load() || sk.RandPoolLen() < capacity {
			if time.Now().After(deadline) {
				t.Fatalf("pool stuck at %d of %d masks", sk.RandPoolLen(), capacity)
			}
			time.Sleep(time.Millisecond)
		}
	}
	draw := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := sk.mask(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFull()
	draw(capacity / 2)
	// A kick is synchronous: had one happened, the filler would be running
	// or would already have computed a mask.
	if p.filling.Load() || p.computed.Load() != capacity || sk.RandPoolLen() != capacity/2 {
		t.Fatalf("draws down to half full restarted the filler: filling=%v computed=%d len=%d",
			p.filling.Load(), p.computed.Load(), sk.RandPoolLen())
	}
	draw(1)
	waitFull()
	if got := p.computed.Load() - capacity; got != capacity/2+1 {
		t.Fatalf("refill from below half computed %d masks, want %d", got, capacity/2+1)
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
// private-key path: "inline" is a key without a pool, paying the two table
// products of a mask per op; "pooled-online" times only the online
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
	if _, err := sk.newMask(); err != nil { // builds the mask tables off the clock
		b.Fatal(err)
	}
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
