package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"datablinder/internal/store/kvstore"
)

// open returns a store persisted under dir.
func open(t *testing.T, dir string) *Store {
	t.Helper()
	kv, err := kvstore.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return Over(kv)
}

func TestInsertGetDelete(t *testing.T) {
	s := New()
	if err := s.Insert("obs", "d1", []byte("blob1")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := s.Insert("obs", "d1", []byte("blob2")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Insert = %v, want ErrExists", err)
	}
	blob, err := s.Get("obs", "d1")
	if err != nil || string(blob) != "blob1" {
		t.Fatalf("Get = %q, %v", blob, err)
	}
	if err := s.Delete("obs", "d1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("obs", "d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := s.Delete("obs", "d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete = %v, want ErrNotFound", err)
	}
}

func TestPutOverwrites(t *testing.T) {
	s := New()
	s.Put("c", "id", []byte("v1"))
	s.Put("c", "id", []byte("v2"))
	blob, err := s.Get("c", "id")
	if err != nil || string(blob) != "v2" {
		t.Fatalf("Get = %q, %v", blob, err)
	}
}

func TestCollectionsAreIsolated(t *testing.T) {
	s := New()
	s.Put("a", "id", []byte("in-a"))
	if _, err := s.Get("b", "id"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-collection Get = %v, want ErrNotFound", err)
	}
	names, _ := s.Collections()
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("Collections = %v", names)
	}
}

func TestGetMany(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Put("c", fmt.Sprintf("d%d", i), []byte{byte(i)})
	}
	recs, err := s.GetMany("c", []string{"d3", "d0", "missing", "d4"})
	if err != nil {
		t.Fatalf("GetMany: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("GetMany returned %d records, want 3", len(recs))
	}
	// Order of requested ids is preserved.
	if recs[0].ID != "d3" || recs[1].ID != "d0" || recs[2].ID != "d4" {
		t.Fatalf("GetMany order = %v", []string{recs[0].ID, recs[1].ID, recs[2].ID})
	}
}

func TestScanPagination(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Put("c", fmt.Sprintf("d%02d", i), []byte("x"))
	}
	var all []string
	after := ""
	for {
		recs, err := s.Scan("c", after, 3)
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			all = append(all, r.ID)
		}
		after = recs[len(recs)-1].ID
	}
	if len(all) != 10 {
		t.Fatalf("paginated scan returned %d docs, want 10", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatalf("scan not ordered: %v", all)
		}
	}
	// limit <= 0 means everything.
	recs, _ := s.Scan("c", "", 0)
	if len(recs) != 10 {
		t.Fatalf("unlimited scan = %d docs, want 10", len(recs))
	}
}

func TestCountExists(t *testing.T) {
	s := New()
	s.Put("c", "a", []byte("1"))
	s.Put("c", "b", []byte("2"))
	if n, _ := s.Count("c"); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if _, err := s.Get("c", "a"); err != nil {
		t.Fatalf("Get(a) = %v", err)
	}
	if _, err := s.Get("c", "z"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(z) = %v, want ErrNotFound", err)
	}
}

func TestBlobCopySemantics(t *testing.T) {
	s := New()
	buf := []byte("original")
	s.Put("c", "id", buf)
	buf[0] = 'X'
	got, _ := s.Get("c", "id")
	if string(got) != "original" {
		t.Fatalf("store aliased caller slice: %q", got)
	}
	got[0] = 'Y'
	got2, _ := s.Get("c", "id")
	if string(got2) != "original" {
		t.Fatalf("store returned aliased slice: %q", got2)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	payload := []byte{0x00, 0x01, 0xFF, 'j', 's', 'o', 'n'}
	s.Put("obs", "d1", payload)
	s.Put("patients", "p1", []byte("enc"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close leaves a final snapshot for the next open to recover from.
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(snaps) != 1 {
		t.Fatalf("snapshots after Close = %v, want one", snaps)
	}

	s2 := open(t, dir)
	defer s2.Close()
	got, err := s2.Get("obs", "d1")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("snapshot round trip = %x, %v", got, err)
	}
	if n, _ := s2.Count("patients"); n != 1 {
		t.Fatalf("patients count = %d", n)
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
	if err := s.Put("c", "id", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v", err)
	}
	if _, err := s.Get("c", "id"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v", err)
	}
	if _, err := s.Scan("c", "", 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after close = %v", err)
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
				id := fmt.Sprintf("g%d-i%d", g, i)
				if err := s.Insert("c", id, []byte(id)); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				if _, err := s.Get("c", id); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n, _ := s.Count("c"); n != 8*200 {
		t.Fatalf("Count = %d, want %d", n, 8*200)
	}
}

// TestOpenIgnoresForeignFiles: only the log's own segment and snapshot
// files are state. Anything else in the directory — including *.json
// files, whatever they hold — is neither read nor touched.
func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	foreign := map[string][]byte{
		"README.txt": []byte("hi"),
		"obs.json":   []byte(`[{"id":"a","blob":"Yg=="}]`),
		"bad.json":   []byte("{not json"),
	}
	for name, content := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	os.MkdirAll(filepath.Join(dir, "subdir"), 0o700)
	s := open(t, dir)
	if names, err := s.Collections(); err != nil || len(names) != 0 {
		t.Fatalf("store opened with collections %v (%v), want empty", names, err)
	}
	s.Close()
	for name, content := range foreign {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("%s changed by Open/Close: %q, %v", name, got, err)
		}
	}
}
