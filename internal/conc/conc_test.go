package conc

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupCollectsFirstError(t *testing.T) {
	g, ctx := WithContext(context.Background())
	boom := errors.New("boom")
	g.Go(func() error { return boom })
	g.Go(func() error {
		select {
		case <-ctx.Done():
			return nil // cancelled by the failing sibling
		case <-time.After(5 * time.Second):
			return errors.New("sibling was not cancelled")
		}
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want boom", err)
	}
}

func TestGroupNoError(t *testing.T) {
	g, _ := WithContext(context.Background())
	var n int64
	for i := 0; i < 32; i++ {
		g.Go(func() error {
			atomic.AddInt64(&n, 1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if n != 32 {
		t.Fatalf("ran %d tasks, want 32", n)
	}
}

func TestGroupLimit(t *testing.T) {
	g, _ := WithContext(context.Background())
	g.SetLimit(3)
	var cur, peak int64
	for i := 0; i < 24; i++ {
		g.Go(func() error {
			c := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&cur, -1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Fatalf("peak concurrency %d exceeds limit 3", peak)
	}
}

func TestForEach(t *testing.T) {
	var n int64
	err := ForEach(context.Background(), 100, 8, func(_ context.Context, i int) error {
		atomic.AddInt64(&n, int64(i))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4950 {
		t.Fatalf("sum = %d, want 4950", n)
	}
}

func TestForEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran int64
	err := ForEach(context.Background(), 1000, 2, func(ctx context.Context, i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ForEach = %v, want boom", err)
	}
	if atomic.LoadInt64(&ran) == 1000 {
		t.Log("all tasks ran despite early error (timing-dependent, not fatal)")
	}
}

// settle waits for the goroutine count to come down to want.
func settle(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("%d goroutines, want at most %d", got, want)
	}
}

// TestPoolReusesParkedGoroutines: however many functions run, one after
// another or at once, no more than maxIdle goroutines stay parked behind
// them, and Close releases those.
func TestPoolReusesParkedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(2)
	var wg sync.WaitGroup
	run := func(n int, hold chan struct{}) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			p.Go(func() {
				defer wg.Done()
				if hold != nil {
					<-hold
				}
			})
		}
	}
	for i := 0; i < 100; i++ {
		run(1, nil)
		wg.Wait()
		settle(t, base+2) // a function that finds the last goroutine still parking starts one
	}
	hold := make(chan struct{})
	run(5, hold)
	if got := runtime.NumGoroutine(); got < base+5 {
		t.Fatalf("5 blocked functions on %d goroutines", got-base)
	}
	close(hold)
	wg.Wait()
	settle(t, base+2) // maxIdle stay parked, the rest exit
	p.Close()
	settle(t, base)
	run(3, nil) // still runs functions, on goroutines that do not linger
	wg.Wait()
	settle(t, base)
}

// TestStripeHashesJoinedParts: a key's parts hash as the FNV-1a of their
// zero-byte join, so splitting a key differently picks a different stripe
// only through the hash, never by accident of the joining.
func TestStripeHashesJoinedParts(t *testing.T) {
	fnv := func(s string) int {
		h := uint32(2166136261)
		for i := 0; i < len(s); i++ {
			h ^= uint32(s[i])
			h *= 16777619
		}
		return int(h % StripeCount)
	}
	for _, parts := range [][]string{{""}, {"a"}, {"ledger", "d003"}, {"", ""}, {"x", "", "yz"}} {
		if got, want := Stripe(parts...), fnv(strings.Join(parts, "\x00")); got != want {
			t.Errorf("Stripe(%q) = %d, want %d", parts, got, want)
		}
	}
	var s Stripes
	if s.For("ledger", "d003") != &s[Stripe("ledger", "d003")] {
		t.Error("For does not return the key's stripe")
	}
}
