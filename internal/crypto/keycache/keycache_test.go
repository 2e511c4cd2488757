package keycache

import (
	"fmt"
	"sync"
	"testing"
)

func TestLRUEviction(t *testing.T) {
	c := New[string, int](3)
	for i := 1; i <= 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("k1 missing before eviction")
	}
	c.Put("k4", 4) // k2 is now least-recently used → evicted
	if _, ok := c.Get("k2"); ok {
		t.Fatal("k2 survived eviction")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

func TestPutUpdatesExisting(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 2)
	if v, ok := c.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) = %d, %v; want 2, true", v, ok)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestGetOrCompute(t *testing.T) {
	c := New[string, int](4)
	calls := 0
	f := func() (int, error) { calls++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrCompute("k", f)
		if err != nil || v != 42 {
			t.Fatalf("GetOrCompute = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	if _, err := c.GetOrCompute("err", func() (int, error) {
		return 0, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("compute error swallowed")
	}
	if _, ok := c.Get("err"); ok {
		t.Fatal("failed compute was cached")
	}
}

// TestConcurrentHammer exercises the cache from parallel goroutines under
// -race: overlapping gets, puts and evictions.
func TestConcurrentHammer(t *testing.T) {
	c := New[int, int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*37 + i) % 64 // twice the capacity → constant eviction
				v, err := c.GetOrCompute(k, func() (int, error) { return k * 2, nil })
				if err != nil || v != k*2 {
					t.Errorf("GetOrCompute(%d) = %d, %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
