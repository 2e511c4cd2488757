package kvstore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestStripedConcurrent hammers every namespace from parallel goroutines
// under -race, with keys spread across all shards and an AOF attached so
// log serialization is exercised too. The store is replayed afterwards to
// confirm the interleaved AOF reproduces the same state.
func TestStripedConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "striped.aof")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := []byte(fmt.Sprintf("k%d-%d", g, i))
				val := []byte(fmt.Sprintf("v%d-%d", g, i))
				if err := s.Set(key, val); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				if v, ok, err := s.Get(key); err != nil || !ok || !bytes.Equal(v, val) {
					t.Errorf("Get(%s) = %q, %v, %v", key, v, ok, err)
					return
				}
				if err := s.HSet([]byte("shared-hash"), key, val); err != nil {
					t.Errorf("HSet: %v", err)
					return
				}
				if err := s.HSet([]byte(fmt.Sprintf("set%d", g)), key, nil); err != nil {
					t.Errorf("HSet: %v", err)
					return
				}
				if _, err := s.Incr([]byte("shared-counter"), 1); err != nil {
					t.Errorf("Incr: %v", err)
					return
				}
				if err := s.ZAdd([]byte("shared-zset"), key, val); err != nil {
					t.Errorf("ZAdd: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total, err := s.Counter([]byte("shared-counter"))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(goroutines * perG); total != want {
		t.Fatalf("shared counter = %d, want %d", total, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	replayed, err := Open(path)
	if err != nil {
		t.Fatalf("replaying interleaved AOF: %v", err)
	}
	defer replayed.Close()
	if got, _ := replayed.Counter([]byte("shared-counter")); got != total {
		t.Fatalf("replayed counter = %d, want %d", got, total)
	}
	if n, _ := replayed.HLen([]byte("shared-hash")); n != goroutines*perG {
		t.Fatalf("replayed hash len = %d, want %d", n, goroutines*perG)
	}
	if n, _ := replayed.ZCard([]byte("shared-zset")); n != goroutines*perG {
		t.Fatalf("replayed zset card = %d, want %d", n, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		key := []byte(fmt.Sprintf("k%d-%d", g, perG-1))
		v, ok, err := replayed.Get(key)
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("v%d-%d", g, perG-1))) {
			t.Fatalf("replayed Get(%s) = %q, %v, %v", key, v, ok, err)
		}
	}
}

// TestCloseDrainsInFlight checks ops racing Close either complete fully or
// report ErrClosed — never a partial write or a panic.
func TestCloseDrainsInFlight(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "close.aof"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := []byte(fmt.Sprintf("c%d-%d", g, i))
				if err := s.Set(key, key); err != nil && err != ErrClosed {
					t.Errorf("Set during close: %v", err)
					return
				}
			}
		}(g)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// BenchmarkStoreParallelSet measures multi-writer throughput: before
// striping every Set serialized on one store-wide mutex.
func BenchmarkStoreParallelSet(b *testing.B) {
	s := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		buf := make([]byte, 16)
		for pb.Next() {
			n := copy(buf, fmt.Sprintf("bench%d", i))
			if err := s.Set(buf[:n], buf[:n]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkStoreParallelGet measures read scalability across shards.
func BenchmarkStoreParallelGet(b *testing.B) {
	s := New()
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench%d", i))
		if err := s.Set(keys[i], keys[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok, err := s.Get(keys[i%len(keys)]); err != nil || !ok {
				b.Fatal("missing key")
			}
			i++
		}
	})
}
