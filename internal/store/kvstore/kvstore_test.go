package kvstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"datablinder/internal/store/wal"
)

func TestSetGetDel(t *testing.T) {
	s := New()
	if err := s.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	v, ok, err := s.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if err := s.Del([]byte("k")); err != nil {
		t.Fatalf("Del: %v", err)
	}
	if _, ok, _ := s.Get([]byte("k")); ok {
		t.Fatal("key survived Del")
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	v, ok, err := s.Get([]byte("nope"))
	if err != nil || ok || v != nil {
		t.Fatalf("Get(missing) = %q, %v, %v", v, ok, err)
	}
}

func TestValueCopySemantics(t *testing.T) {
	s := New()
	buf := []byte("original")
	if err := s.Set([]byte("k"), buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // mutating the caller's slice must not affect the store
	v, _, _ := s.Get([]byte("k"))
	if string(v) != "original" {
		t.Fatalf("store aliased caller slice: %q", v)
	}
	v[0] = 'Y' // mutating the returned slice must not affect the store
	v2, _, _ := s.Get([]byte("k"))
	if string(v2) != "original" {
		t.Fatalf("store returned aliased slice: %q", v2)
	}
}

// TestHMGetCopies: HMGet's values are copies — writing into one, or
// appending to it, changes neither the store nor the value beside it — and
// a call costs two allocations however many fields it finds: the result
// slice and one slab for every value.
func TestHMGetCopies(t *testing.T) {
	s := New()
	h := []byte("h")
	fields := make([]string, 20)
	for i := range fields {
		fields[i] = fmt.Sprintf("f%02d", i)
		if err := s.HSet(h, []byte(fields[i]), []byte(fmt.Sprintf("value-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := s.HMGet(h, fields[:2])
	if err != nil {
		t.Fatal(err)
	}
	vals[0][0] = 'X'
	vals[0] = append(vals[0], "-appended"...)
	if string(vals[1]) != "value-01" {
		t.Fatalf("append to one value changed the next: %q", vals[1])
	}
	if v, _, _ := s.HGet(h, []byte(fields[0])); string(v) != "value-00" {
		t.Fatalf("store aliased an HMGet value: %q", v)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	want := append(fields[:len(fields):len(fields)], "missing")
	if got := testing.AllocsPerRun(100, func() {
		if _, err := s.HMGet(h, want); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Fatalf("HMGet of %d fields makes %v allocations, want at most 2", len(want), got)
	}
}

func TestHashOps(t *testing.T) {
	s := New()
	if err := s.HSet([]byte("h"), []byte("f1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet([]byte("h"), []byte("f2"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.HGet([]byte("h"), []byte("f1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("HGet = %q, %v, %v", v, ok, err)
	}
	if n, _ := s.HLen([]byte("h")); n != 2 {
		t.Fatalf("HLen = %d, want 2", n)
	}
	fields, err := s.HFields([]byte("h"))
	if err != nil || len(fields) != 2 || string(fields[0]) != "f1" || string(fields[1]) != "f2" {
		t.Fatalf("HFields = %v, %v", fields, err)
	}
	s.HSet([]byte("h"), []byte("empty"), nil)
	vals, err := s.HMGet([]byte("h"), []string{"f2", "missing", "empty", "f1"})
	if err != nil || string(vals[0]) != "v2" || vals[1] != nil || vals[2] == nil || len(vals[2]) != 0 || string(vals[3]) != "v1" {
		t.Fatalf("HMGet = %q, %v; want v2, nil, empty, v1", vals, err)
	}
	s.HDel([]byte("h"), []byte("empty"))
	if err := s.HDel([]byte("h"), []byte("f1")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.HGet([]byte("h"), []byte("f1")); ok {
		t.Fatal("field survived HDel")
	}
	if n, _ := s.HLen([]byte("h")); n != 1 {
		t.Fatalf("HLen after HDel = %d, want 1", n)
	}
}

// TestHashConditionalOps: HSetNX writes only an absent field and HRemove
// reports presence; a refusal or a miss appends nothing to the log, and
// what they did write replays.
func TestHashConditionalOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	h := []byte("docs")
	if ok, err := s.HSetNX(h, []byte("d1"), []byte("first")); err != nil || !ok {
		t.Fatalf("HSetNX on an absent field = %v, %v", ok, err)
	}
	appends := s.WAL().Stats().Appends
	if ok, err := s.HSetNX(h, []byte("d1"), []byte("second")); err != nil || ok {
		t.Fatalf("HSetNX on a present field = %v, %v", ok, err)
	}
	if v, _, _ := s.HGet(h, []byte("d1")); string(v) != "first" {
		t.Fatalf("refused HSetNX overwrote the field: %q", v)
	}
	if ok, err := s.HRemove(h, []byte("nope")); err != nil || ok {
		t.Fatalf("HRemove of an absent field = %v, %v", ok, err)
	}
	if got := s.WAL().Stats().Appends; got != appends {
		t.Fatalf("a refused HSetNX and a missed HRemove appended %d records", got-appends)
	}
	for _, f := range []string{"d2", "d3"} {
		if ok, err := s.HSetNX(h, []byte(f), []byte(f)); err != nil || !ok {
			t.Fatalf("HSetNX %s = %v, %v", f, ok, err)
		}
	}
	if ok, err := s.HRemove(h, []byte("d2")); err != nil || !ok {
		t.Fatalf("HRemove of a present field = %v, %v", ok, err)
	}
	s.Set([]byte("plain"), []byte("string key"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fields, _ := s2.HFields(h)
	if fmt.Sprintf("%s", fields) != "[d1 d3]" {
		t.Fatalf("replayed fields = %s, want [d1 d3]", fields)
	}
	if v, _, _ := s2.HGet(h, []byte("d1")); string(v) != "first" {
		t.Fatalf("replayed d1 = %q, want first", v)
	}
	if keys, _ := s2.HKeys(nil); fmt.Sprintf("%s", keys) != "[docs]" {
		t.Fatalf("HKeys = %s, want only the hash", keys)
	}
}

// TestSetOps: a set is a hash whose fields carry empty values, so SAdd
// deduplicates, HFields lists the members sorted and HDel removes one.
func TestSetOps(t *testing.T) {
	s := New()
	for _, m := range []string{"b", "a", "c", "a"} {
		if err := s.SAdd([]byte("s"), []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.HLen([]byte("s")); n != 3 {
		t.Fatalf("HLen = %d, want 3 (dedup)", n)
	}
	members, _ := s.HFields([]byte("s"))
	if got := fmt.Sprintf("%s", members); got != "[a b c]" {
		t.Fatalf("HFields = %s, want [a b c]", got)
	}
	if v, ok, _ := s.HGet([]byte("s"), []byte("b")); !ok || len(v) != 0 {
		t.Fatalf("HGet(b) = %q, %v, want a present empty value", v, ok)
	}
	if err := s.HDel([]byte("s"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.HGet([]byte("s"), []byte("b")); ok {
		t.Fatal("member survived HDel")
	}
}

func TestCounters(t *testing.T) {
	s := New()
	if v, err := s.Incr([]byte("c"), 5); err != nil || v != 5 {
		t.Fatalf("Incr = %d, %v", v, err)
	}
	if v, err := s.Incr([]byte("c"), -2); err != nil || v != 3 {
		t.Fatalf("Incr = %d, %v", v, err)
	}
	if v, err := s.Counter([]byte("c")); err != nil || v != 3 {
		t.Fatalf("Counter = %d, %v", v, err)
	}
	if v, err := s.Counter([]byte("unset")); err != nil || v != 0 {
		t.Fatalf("Counter(unset) = %d, %v", v, err)
	}
	// A counter is an 8-byte big-endian string; a string of another length
	// is not a counter.
	if v, ok, _ := s.Get([]byte("c")); !ok || !bytes.Equal(v, []byte{0, 0, 0, 0, 0, 0, 0, 3}) {
		t.Fatalf("Get(counter) = %x, %v", v, ok)
	}
	s.Set([]byte("s"), []byte("seven"))
	if _, err := s.Incr([]byte("s"), 1); err == nil {
		t.Fatal("Incr of a 5-byte string succeeded")
	}
	if _, err := s.Counter([]byte("s")); err == nil {
		t.Fatal("Counter of a 5-byte string succeeded")
	}
	if v, _, _ := s.Get([]byte("s")); string(v) != "seven" {
		t.Fatalf("refused Incr changed the string to %q", v)
	}
}

func TestKeysPrefix(t *testing.T) {
	s := New()
	for _, k := range []string{"idx:a", "idx:b", "doc:1"} {
		if err := s.Set([]byte(k), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Keys([]byte("idx:"))
	if err != nil || len(keys) != 2 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
}

func TestLen(t *testing.T) {
	s := New()
	s.Set([]byte("a"), []byte("1"))
	s.HSet([]byte("b"), []byte("f"), []byte("1"))
	s.ZAdd([]byte("c"), []byte("1"), []byte("m"))
	s.Incr([]byte("d"), 1)
	if n, _ := s.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
}

func TestClosedStore(t *testing.T) {
	s := New()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Set([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Set after close = %v, want ErrClosed", err)
	}
	if _, _, err := s.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close = %v, want ErrClosed", err)
	}
	if _, err := s.Incr([]byte("k"), 1); err != ErrClosed {
		t.Fatalf("Incr after close = %v, want ErrClosed", err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.aof")

	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s.Set([]byte("k"), []byte("v"))
	s.HSet([]byte("h"), []byte("f"), []byte("hv"))
	s.HSet([]byte("set"), []byte("m1"), nil)
	s.HSet([]byte("set"), []byte("m2"), nil)
	s.HDel([]byte("set"), []byte("m1"))
	s.Incr([]byte("c"), 5)
	s.Incr([]byte("c"), 2)
	s.Set([]byte("gone"), []byte("x"))
	s.Del([]byte("gone"))
	s.HSet([]byte("h"), []byte("dead"), []byte("x"))
	s.HDel([]byte("h"), []byte("dead"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("string not replayed: %q, %v", v, ok)
	}
	if v, ok, _ := s2.HGet([]byte("h"), []byte("f")); !ok || string(v) != "hv" {
		t.Fatalf("hash not replayed: %q, %v", v, ok)
	}
	if _, ok, _ := s2.HGet([]byte("h"), []byte("dead")); ok {
		t.Fatal("HDel not replayed")
	}
	if members, _ := s2.HFields([]byte("set")); fmt.Sprintf("%s", members) != "[m2]" {
		t.Fatalf("empty-valued fields not replayed: %s", members)
	}
	if c, _ := s2.Counter([]byte("c")); c != 7 {
		t.Fatalf("counter not replayed: %d", c)
	}
	if _, ok, _ := s2.Get([]byte("gone")); ok {
		t.Fatal("DEL not replayed")
	}
}

func TestPersistenceBinaryKeys(t *testing.T) {
	// Keys/values containing spaces, newlines, and non-UTF8 bytes must
	// survive the text AOF format.
	path := filepath.Join(t.TempDir(), "bin.aof")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{0, 1, ' ', '\n', 0xFF}
	val := []byte{0xde, 0xad, '\n', ' '}
	s.Set(key, val)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	v, ok, _ := s2.Get(key)
	if !ok || !bytes.Equal(v, val) {
		t.Fatalf("binary round trip failed: %x, %v", v, ok)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("k%d-%d", g, i))
				if err := s.Set(k, k); err != nil {
					t.Errorf("Set: %v", err)
					return
				}
				if _, _, err := s.Get(k); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if _, err := s.Incr([]byte("shared"), 1); err != nil {
					t.Errorf("Incr: %v", err)
					return
				}
				if err := s.HSet([]byte("all"), k, nil); err != nil {
					t.Errorf("HSet: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c, _ := s.Counter([]byte("shared")); c != 8*200 {
		t.Fatalf("counter = %d, want %d", c, 8*200)
	}
	if n, _ := s.HLen([]byte("all")); n != 8*200 {
		t.Fatalf("hash len = %d, want %d", n, 8*200)
	}
}

func TestQuickSetGet(t *testing.T) {
	s := New()
	f := func(k, v []byte) bool {
		if err := s.Set(k, v); err != nil {
			return false
		}
		got, ok, err := s.Get(k)
		return err == nil && ok && bytes.Equal(got, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCreatesMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.aof")
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open(new path): %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("store directory not created: %v", err)
	}
}
