package obs

import (
	"encoding/json"
	"expvar"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// The two histograms of the WAL; their labels are what /debug/vars shows.
var (
	fsync = NewBuckets("us", 50, 100, 250, 500, 1000, 2500, 5000, 10000)
	batch = NewBuckets("", 1, 2, 4, 8, 16, 32, 64)
)

func TestBucketLabels(t *testing.T) {
	for _, c := range []struct {
		b    *Buckets
		want []string
	}{
		{fsync, []string{"<=50us", "<=100us", "<=250us", "<=500us", "<=1000us", "<=2500us", "<=5000us", "<=10000us", ">10000us"}},
		{batch, []string{"1", "2", "<=4", "<=8", "<=16", "<=32", "<=64", ">64"}},
	} {
		if !reflect.DeepEqual(c.b.labels, c.want) {
			t.Errorf("labels = %q, want %q", c.b.labels, c.want)
		}
	}
}

// TestBucketEdges: a bound is inclusive, bound+1 is the next bucket, 0 is
// the first, and anything above the last bound overflows.
func TestBucketEdges(t *testing.T) {
	for _, c := range []struct {
		b    *Buckets
		v    uint64
		want string
	}{
		{fsync, 0, "<=50us"},
		{fsync, 50, "<=50us"},
		{fsync, 51, "<=100us"},
		{fsync, 10000, "<=10000us"},
		{fsync, 10001, ">10000us"},
		{fsync, ^uint64(0), ">10000us"},
		{batch, 0, "1"},
		{batch, 1, "1"},
		{batch, 2, "2"},
		{batch, 3, "<=4"},
		{batch, 4, "<=4"},
		{batch, 5, "<=8"},
		{batch, 64, "<=64"},
		{batch, 65, ">64"},
	} {
		h := NewHistogram(c.b)
		h.Observe(c.v)
		got := make(map[string]uint64)
		h.AddTo(got)
		if want := map[string]uint64{c.want: 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("Observe(%d) = %v, want %v", c.v, got, want)
		}
	}
}

// TestAddToSums: AddTo adds into what is there and leaves empty buckets out.
func TestAddToSums(t *testing.T) {
	a, b := NewHistogram(batch), NewHistogram(batch)
	a.Observe(1)
	a.Observe(3)
	b.Observe(4)
	b.Observe(100)
	got := make(map[string]uint64)
	a.AddTo(got)
	b.AddTo(got)
	if want := map[string]uint64{"1": 1, "<=4": 2, ">64": 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// member is a stand-in for a Log or a Conn.
type member struct {
	n    atomic.Uint64
	hist Histogram
}

type total struct {
	N    uint64            `json:"n"`
	Hist map[string]uint64 `json:"hist"`
}

func sum(ms ...*member) total {
	t := total{Hist: make(map[string]uint64)}
	for _, m := range ms {
		t.N += m.n.Load()
		m.hist.AddTo(t.Hist)
	}
	return t
}

func read(t *testing.T, name string) total {
	t.Helper()
	var v total
	if err := json.Unmarshal([]byte(expvar.Get(name).String()), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

var (
	joinSet = NewSet("obs_test_join", sum)
	raceSet = NewSet("obs_test_race", sum)
)

func TestSetJoinLeave(t *testing.T) {
	a, b := &member{hist: NewHistogram(batch)}, &member{hist: NewHistogram(batch)}
	a.n.Add(3)
	b.n.Add(4)
	if got := read(t, "obs_test_join"); got.N != 0 {
		t.Fatalf("empty set reads %+v", got)
	}
	joinSet.Join(a)
	joinSet.Join(b)
	if got := read(t, "obs_test_join"); got.N != 7 {
		t.Fatalf("two members read %+v, want n 7", got)
	}
	if got := joinSet.members(); len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("Members = %v, want a, b in join order", got)
	}
	joinSet.Leave(a)
	joinSet.Leave(a)
	if got := read(t, "obs_test_join"); got.N != 4 {
		t.Fatalf("after a left: %+v, want n 4", got)
	}
	joinSet.Leave(b)
	if got := joinSet.members(); len(got) != 0 {
		t.Fatalf("Members = %v after both left", got)
	}
}

// TestSetRace: snapshots run while members join and leave and while one
// member keeps counting and observing (run it under -race). Every count
// moves in steps of 10, so a snapshot that reads a member reads it whole;
// once every member has left, the set reads empty.
func TestSetRace(t *testing.T) {
	busy := &member{hist: NewHistogram(fsync)}
	raceSet.Join(busy)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var v total
				if err := json.Unmarshal([]byte(expvar.Get("obs_test_race").String()), &v); err != nil || v.N%10 != 0 {
					t.Errorf("snapshot %+v, %v: want n a multiple of 10", v, err)
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := uint64(0); i < 2000; i++ {
			busy.n.Add(10)
			busy.hist.Observe(i * 10)
		}
	}()
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				m := &member{hist: NewHistogram(fsync)}
				m.n.Add(10)
				m.hist.Observe(uint64(i))
				raceSet.Join(m)
				raceSet.Leave(m)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := read(t, "obs_test_race"); got.N != busy.n.Load() {
		t.Fatalf("set of busy alone reads n %d, want %d", got.N, busy.n.Load())
	}
	raceSet.Leave(busy)
	if got := read(t, "obs_test_race"); got.N != 0 || len(got.Hist) != 0 {
		t.Fatalf("set of left members reads %+v", got)
	}
}
