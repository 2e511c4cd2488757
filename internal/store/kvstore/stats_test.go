package kvstore

import "testing"

func TestStatsPerNamespace(t *testing.T) {
	s := New()
	defer s.Close()

	if err := s.Set([]byte("detidx/obs/status"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet([]byte("aggidx/obs/value"), []byte("d1"), []byte("ct-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet([]byte("aggidx/obs/value"), []byte("d2"), []byte("ct-2")); err != nil {
		t.Fatal(err)
	}
	if err := s.HSet([]byte("detidx/obs/code/abc"), []byte("d1"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ZAdd([]byte("opeidx/obs/value"), []byte{1}, []byte("d1")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Incr([]byte("plainkey"), 3); err != nil {
		t.Fatal(err)
	}

	stats, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// A posting list's empty values add no bytes: its keys plus its ids.
	detBytes := int64(len("detidx/obs/status") + len("v") + len("detidx/obs/code/abc") + len("d1"))
	if got := stats["detidx"]; got.Keys != 2 || got.Items != 2 || got.Bytes != detBytes {
		t.Fatalf("detidx stats = %+v, want 2 keys / 2 items / %d bytes", got, detBytes)
	}
	if got := stats["aggidx"]; got.Keys != 1 || got.Items != 2 {
		t.Fatalf("aggidx stats = %+v, want 1 key / 2 items", got)
	}
	if got := stats["opeidx"]; got.Keys != 1 || got.Items != 1 {
		t.Fatalf("opeidx stats = %+v, want 1 key / 1 item", got)
	}
	if got := stats["plainkey"]; got.Keys != 1 || got.Items != 1 || got.Bytes != int64(len("plainkey")+8) {
		t.Fatalf("plainkey stats = %+v, want 1 key / 1 item / %d bytes", got, len("plainkey")+8)
	}
	for ns, st := range stats {
		if st.Bytes <= 0 {
			t.Fatalf("namespace %q reports %d bytes", ns, st.Bytes)
		}
	}
}
