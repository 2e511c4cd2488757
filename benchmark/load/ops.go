package load

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"datablinder"
)

// Class is an operation class; latencies are reported per class.
type Class int

const (
	Insert Class = iota
	Search
	Aggregate
	Boolean
	Range
	NumClasses
)

var classNames = [NumClasses]string{"insert", "search", "aggregate", "boolean", "range"}

func (c Class) String() string { return classNames[c] }

// Target is what a workload drives: *datablinder.Collection in dbbench, and
// an engine the harness assembled itself in dblayers.
type Target interface {
	Insert(ctx context.Context, doc *datablinder.Document) (string, error)
	Get(ctx context.Context, id string) (*datablinder.Document, error)
	Count(ctx context.Context) (int, error)
	Search(ctx context.Context, p datablinder.Predicate) ([]*datablinder.Document, error)
	Aggregate(ctx context.Context, field string, agg datablinder.Agg, where datablinder.Predicate) (float64, error)
}

// Workload is one named traffic mix. Every constant is fixed here and in
// README.md; nothing is detected or calibrated at run time.
type Workload struct {
	Name    string
	Rich    bool   // RichSchema instead of PaperSchema
	Preload int    // documents inserted during set-up
	Fsync   string // cloudserver -fsync policy
	Mix     [NumClasses]float64
	Rate    float64 // open loop: Poisson arrivals per second; 0 = closed loop
	Crash   bool    // SIGKILL + restart + verify every acked insert
}

// Load shape shared by all workloads: the sandbox has two cores.
const (
	Callers     = 2   // closed-loop callers, and preload writers
	MaxInFlight = 256 // open loop: arrivals beyond this are shed and count as failed
	Shards      = 3
	WarmupOps   = 150 // per caller, untimed, before the measured window
	Rounds      = 3   // deployments per run; every gated metric is the median over them
	// Overload is the diagnostic open-loop phase's rate, as a multiple of Rate.
	Overload = 1.4
)

// Workloads are the benchmark's five traffic mixes. BENCHMARK.json gates
// paper_mix, ingest and rich_query. ingest_durable and open_loop_mix are
// measured and compared but not gated: the first waits on the host's disk
// for half of every insert, the second amplifies the host's CPU noise by
// queueing, and neither holds a usable bound on a shared host (see README).
var Workloads = []Workload{
	// The paper's 5.2 blend (insert, eq-search, avg, 1:1:1) on its 8-tactic
	// schema: every layer works, none dominates.
	{
		Name: "paper_mix", Preload: 3000, Fsync: "interval",
		Mix: [NumClasses]float64{Insert: 1. / 3, Search: 1. / 3, Aggregate: 1. / 3},
	},
	// Inserts only, the WAL synced in the background: crypto, coalesce,
	// encode, store writes and WAL append; no read path, no wait for the disk.
	{
		Name: "ingest", Preload: 1000, Fsync: "interval",
		Mix: [NumClasses]float64{Insert: 1},
	},
	// ingest at fsync=always, then SIGKILL and restart: adds the WAL's group
	// commit and nine fsync waits per insert, and proves acked writes survive.
	{
		Name: "ingest_durable", Preload: 1000, Fsync: "always", Crash: true,
		Mix: [NumClasses]float64{Insert: 1},
	},
	// Read-only eq, boolean, range and avg on the 5.1 schema: BIEX, OPE,
	// scatter-gather, fetch and decrypt; the WAL is idle.
	{
		Name: "rich_query", Rich: true, Preload: 3000, Fsync: "interval",
		Mix: [NumClasses]float64{Search: 0.30, Boolean: 0.25, Range: 0.25, Aggregate: 0.20},
	},
	// paper_mix as Poisson arrivals at a fixed rate, timed from when due:
	// queueing that a closed loop hides.
	{
		Name: "open_loop_mix", Preload: 3000, Fsync: "interval", Rate: OpenRate,
		Mix: [NumClasses]float64{Insert: 1. / 3, Search: 1. / 3, Aggregate: 1. / 3},
	},
}

// OpenRate is open_loop_mix's arrival rate in operations per second, frozen
// as 0.6 x the paper_mix throughput_ops_s measured when the benchmark was
// added (300/s), to two significant figures.
const OpenRate = 180

// Lookup finds a workload by name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// patternLen is the length of the repeating class pattern; every workload's
// shares are whole multiples of 1/60.
const patternLen = 60

// pattern lays the workload's shares out as a fixed interleaving of classes.
// Classes follow it in turn, not random draws, so every 60 operations of a
// stream hold the same work.
func (w Workload) pattern() (classes []Class, counts [NumClasses]int) {
	type slot struct {
		at    float64
		class Class
	}
	var slots []slot
	for c, share := range w.Mix {
		counts[c] = int(math.Round(share * patternLen))
		for k := 0; k < counts[c]; k++ {
			slots = append(slots, slot{(float64(k) + 0.5) / float64(counts[c]), Class(c)})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	for _, s := range slots {
		classes = append(classes, s.class)
	}
	return classes, counts
}

// Scaled looks a workload up by name and multiplies its preload size and
// open-loop rate by scale (1 for a real run; the smoke test uses less). It
// also returns the number of untimed warm-up operations.
func Scaled(name string, scale float64) (w Workload, warmOps int, err error) {
	w, ok := Lookup(name)
	if !ok {
		return w, 0, fmt.Errorf("unknown workload %q", name)
	}
	w.Preload = int(float64(w.Preload) * scale)
	w.Rate *= scale
	return w, max(int(Callers*WarmupOps*scale), 6), nil
}

// Schema is the workload's schema.
func (w Workload) Schema() *datablinder.Schema {
	if w.Rich {
		return RichSchema()
	}
	return PaperSchema()
}

// Op is one generated operation with its oracle answer.
type Op struct {
	Class   Class
	Doc     *datablinder.Document // Insert
	Pred    datablinder.Predicate // reads
	WantIDs []string              // sorted; Search, Boolean, Range
	WantAvg float64               // Aggregate
}

// Op generates operation i of a stream. Reads target preloaded patients only.
func (g *Gen) Op(stream, i int) Op {
	// j counts the operations of this class that came before in the stream.
	pos := i % len(g.pattern)
	class := g.pattern[pos]
	j := i / len(g.pattern) * g.counts[class]
	for _, c := range g.pattern[:pos] {
		if c == class {
			j++
		}
	}
	switch class {
	case Insert:
		return Op{Class: Insert, Doc: g.RunDoc(stream, i)}
	case Search, Aggregate:
		p := g.recs[g.byTime[g.deckSlot(stream, j+int(class)*deckSize/2)]].patient
		op := Op{Class: class, Pred: datablinder.Eq{Field: "subject", Value: patientName(p)}}
		if class == Search {
			op.WantIDs = g.bySubject[p]
		} else {
			op.WantAvg = g.sumBySubj[p] / float64(len(g.bySubject[p]))
		}
		return op
	case Boolean:
		// Every (code, status) pair in turn; three in ten are a two-conjunction
		// DNF whose second term walks the (code, interpretation) pairs.
		k := g.deckSlot(stream, j)
		code, status := codes[k%len(codes)], statuses[k/len(codes)%len(statuses)]
		conj := datablinder.And{Preds: []datablinder.Predicate{
			datablinder.Eq{Field: "code", Value: code}, datablinder.Eq{Field: "status", Value: status},
		}}
		set := g.and("code="+code, "status="+status)
		if j%10 != 2 && j%10 != 5 && j%10 != 8 {
			return Op{Class: Boolean, Pred: conj, WantIDs: g.ids(set)}
		}
		code2, interp := codes[(k+3)%len(codes)], interps[k/len(codes)%len(interps)]
		for i, w := range g.and("code="+code2, "interpretation="+interp) {
			set[i] |= w
		}
		return Op{Class: Boolean, WantIDs: g.ids(set), Pred: datablinder.Or{Preds: []datablinder.Predicate{
			conj,
			datablinder.And{Preds: []datablinder.Predicate{
				datablinder.Eq{Field: "code", Value: code2}, datablinder.Eq{Field: "interpretation", Value: interp},
			}},
		}}}
	default: // Range: a 7-day window starting at a deck slot's timestamp
		first := g.deckSlot(stream, j)
		lo := g.recs[g.byTime[first]].effective
		hi := lo + rangeWidth
		to := sort.Search(len(g.byTime), func(k int) bool { return g.recs[g.byTime[k]].effective > hi })
		idx := append([]int(nil), g.byTime[first:to]...)
		sort.Ints(idx)
		want := make([]string, len(idx))
		for k, i := range idx {
			want[k] = preloadID(i)
		}
		return Op{Class: Range, Pred: datablinder.Between("effective", lo, hi), WantIDs: want}
	}
}

// Do executes op against t and checks the result against the oracle. A
// returned error is one failed operation.
func (op Op) Do(ctx context.Context, t Target) error {
	switch op.Class {
	case Insert:
		_, err := t.Insert(ctx, op.Doc)
		return err
	case Aggregate:
		got, err := t.Aggregate(ctx, "value", datablinder.AggAvg, op.Pred)
		if err != nil {
			return err
		}
		if math.Abs(got-op.WantAvg) > 1e-3*math.Abs(op.WantAvg) {
			return fmt.Errorf("avg(value) where %v = %v, oracle says %v", op.Pred, got, op.WantAvg)
		}
		return nil
	default:
		docs, err := t.Search(ctx, op.Pred)
		if err != nil {
			return err
		}
		return sameIDs(op.Pred, docs, op.WantIDs)
	}
}

func sameIDs(what any, docs []*datablinder.Document, want []string) error {
	got := make([]string, len(docs))
	for i, d := range docs {
		got[i] = d.ID
	}
	if !sort.StringsAreSorted(got) {
		sort.Strings(got)
	}
	if len(got) != len(want) {
		return fmt.Errorf("search %v returned %d ids, oracle says %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("search %v returned id %s where the oracle has %s", what, got[i], want[i])
		}
	}
	return nil
}

// DocBytes is the size of a document as plaintext JSON.
func DocBytes(d *datablinder.Document) int64 {
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // documents are maps of strings and numbers
	}
	return int64(len(b))
}

// CheckInserted reads back insert i of a stream and compares every field with
// the regenerated document.
func (g *Gen) CheckInserted(ctx context.Context, t Target, stream, i int) error {
	want := g.RunDoc(stream, i)
	got, err := t.Get(ctx, want.ID)
	if err != nil {
		return fmt.Errorf("get %s: %w", want.ID, err)
	}
	for k, v := range want.Fields {
		if fmt.Sprint(got.Fields[k]) != fmt.Sprint(v) {
			return fmt.Errorf("get %s: field %s = %v, inserted %v", want.ID, k, got.Fields[k], v)
		}
	}
	return nil
}

// CheckNewPatient searches the new patient that insert i of a stream wrote
// to; acked tells which inserts of that stream completed.
func (g *Gen) CheckNewPatient(ctx context.Context, t Target, stream, i int, acked func(int) bool) error {
	first := i / docsPerNewPat * docsPerNewPat
	var want []string
	for k := first; k < first+docsPerNewPat; k++ {
		if acked(k) {
			want = append(want, runID(stream, k))
		}
	}
	pred := datablinder.Eq{Field: "subject", Value: newPatient(stream, i)}
	docs, err := t.Search(ctx, pred)
	if err != nil {
		return err
	}
	return sameIDs(pred, docs, want)
}
