// Package load is the benchmark's own workload generator, plaintext oracle,
// load drivers and cloudserver child management. It imports only the public
// datablinder package, so both the gated end-to-end driver (cmd/dbbench) and
// the traced per-layer driver (cmd/dblayers) share one definition of every
// workload.
package load

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"datablinder"
)

// Corpus shape: FHIR Observation documents. Preloaded patients are drawn with
// zipfian popularity; run-time inserts go to new patient ids, so a read on a
// preloaded patient has one exact answer even under concurrent writes.
const (
	zipfS         = 1.1
	performers    = 25
	docsPerNewPat = 4
	baseEffective = 1359966610 // 2013-02-04T09:30:10Z, the paper's example
	spanEffective = 3 * 365 * 24 * 3600
	rangeWidth    = 7 * 24 * 3600
	SchemaName    = "observation"
)

var (
	codes    = []string{"glucose", "cholesterol", "heart-rate", "bmi", "hemoglobin", "blood-pressure", "creatinine", "sodium"}
	statuses = []string{"final", "preliminary", "amended", "draft", "registered"}
	interps  = []string{"normal", "high", "low", "critical"}
	valueLo  = []float64{3.5, 2.0, 45, 15, 7, 85, 0.4, 125}
	valueHi  = []float64{12.0, 8.5, 180, 45, 19, 200, 3.0, 150}
)

// PaperSchema is the §5.2 evaluation schema: five DET instances, Mitra, RND
// and Paillier, pinned, declared through the public API.
func PaperSchema() *datablinder.Schema {
	return &datablinder.Schema{Name: SchemaName, Fields: []datablinder.Field{
		datablinder.PlainField("identifier", datablinder.TypeString),
		datablinder.MustField("status", datablinder.TypeString, "C4, op [I, EQ], tactic [DET]"),
		datablinder.MustField("code", datablinder.TypeString, "C4, op [I, EQ], tactic [DET]"),
		datablinder.MustField("subject", datablinder.TypeString, "C2, op [I, EQ], tactic [Mitra]"),
		datablinder.MustField("effective", datablinder.TypeInt, "C4, op [I, EQ], tactic [DET]"),
		datablinder.MustField("issued", datablinder.TypeInt, "C4, op [I, EQ], tactic [DET]"),
		datablinder.MustField("performer", datablinder.TypeString, "C1, op [I], tactic [RND]"),
		datablinder.MustField("value", datablinder.TypeFloat, "C4, op [I, EQ], agg [avg, sum], tactic [DET, Paillier]"),
	}}
}

// RichSchema is the §5.1 schema with the paper's annotations; classic
// selection resolves it to BIEX-2Lev, Mitra, DET+OPE, RND and Paillier.
func RichSchema() *datablinder.Schema {
	return &datablinder.Schema{Name: SchemaName, Fields: []datablinder.Field{
		datablinder.PlainField("identifier", datablinder.TypeString),
		datablinder.MustField("status", datablinder.TypeString, "C3, op [I, EQ, BL]"),
		datablinder.MustField("code", datablinder.TypeString, "C3, op [I, EQ, BL]"),
		datablinder.MustField("subject", datablinder.TypeString, "C2, op [I, EQ]"),
		datablinder.MustField("effective", datablinder.TypeInt, "C5, op [I, EQ, BL, RG], tactic [DET, OPE, BIEX-2Lev]"),
		datablinder.MustField("issued", datablinder.TypeInt, "C5, op [I, EQ, BL, RG], tactic [DET, OPE, BIEX-2Lev]"),
		datablinder.MustField("performer", datablinder.TypeString, "C1, op [I]"),
		datablinder.MustField("value", datablinder.TypeFloat, "C3, op [I, EQ, BL], agg [avg, sum]"),
		datablinder.MustField("interpretation", datablinder.TypeString, "C3, op [I, EQ, BL]"),
	}}
}

// rng is splitmix64: small enough to seed one per operation, so operation i
// of a stream is a pure function of (seed, stream, i) and can be regenerated
// for verification instead of being stored.
type rng uint64

func newRNG(seed int64, stream, i int) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<40 ^ uint64(i))
	r.next()
	return r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// rec is one preloaded document in columnar form, the oracle's view of it.
type rec struct {
	patient, code, status, interp int
	effective                     int64
	value                         float64
}

// Gen holds the preloaded corpus and answers every read from it in plaintext.
//
// The corpus's shape does not depend on the seed: the driver compares runs
// made with different seeds, so the work an operation stream causes has to be
// the same for all of them. Documents are laid out on N slots; a slot fixes
// the patient (a systematic sample of the zipfian popularity, so patient p
// always has the same number of documents), the code, status and
// interpretation (every combination equally often) and the day of the
// timestamp (evenly spread). The seed decides which document id sits on which
// slot, every value, and the order in which reads visit their targets.
type Gen struct {
	seed     int64
	w        Workload
	pattern  []Class // repeating class sequence of the workload's mix
	counts   [NumClasses]int
	patients int
	recs     []rec // by document index

	bySubject [][]string // patient -> sorted preloaded ids
	sumBySubj []float64
	posting   map[string][]uint64 // "field=value" -> bitset over recs
	byTime    []int               // document indexes ordered by effective
	deck      []int               // shuffled read targets, as slots
	UserBytes int64               // plaintext JSON bytes of the preloaded docs
}

// deckSize is how many reads pass before the same multiset of targets
// repeats; a measured window holds several passes.
const deckSize = 240

// NewGen builds the workload's preloaded corpus for seed: w.Preload documents
// over at most a quarter as many patients.
func NewGen(seed int64, w Workload) *Gen {
	preload := w.Preload
	g := &Gen{seed: seed, w: w, patients: max(preload/4, 1), posting: make(map[string][]uint64)}
	g.pattern, g.counts = w.pattern()
	cdf := make([]float64, g.patients)
	var total float64
	for i := range cdf {
		total += 1 / math.Pow(float64(i+1), zipfS)
		cdf[i] = total
	}
	slotOf := g.shuffled(streamPreload+2, preload) // document index -> slot
	g.recs = make([]rec, preload)
	g.bySubject = make([][]string, g.patients)
	g.sumBySubj = make([]float64, g.patients)
	words := (preload + 63) / 64
	post := func(key string, i int) {
		b := g.posting[key]
		if b == nil {
			b = make([]uint64, words)
			g.posting[key] = b
		}
		b[i/64] |= 1 << (i % 64)
	}
	g.byTime = make([]int, preload)
	day := int64(spanEffective / preload)
	for i := range g.recs {
		r := newRNG(seed, streamPreload, i)
		slot := slotOf[i]
		u := (float64(slot) + 0.5) / float64(preload) * total
		rc := rec{
			patient:   min(sort.SearchFloat64s(cdf, u), g.patients-1),
			code:      slot % len(codes),
			status:    slot / len(codes) % len(statuses),
			interp:    slot / (len(codes) * len(statuses)) % len(interps),
			effective: baseEffective + int64(slot)*day + int64(r.intn(int(day))),
		}
		rc.value = randValue(&r, rc.code)
		g.recs[i] = rc
		g.bySubject[rc.patient] = append(g.bySubject[rc.patient], preloadID(i))
		g.sumBySubj[rc.patient] += rc.value
		post("code="+codes[rc.code], i)
		post("status="+statuses[rc.status], i)
		post("interpretation="+interps[rc.interp], i)
		g.byTime[slot] = i // slots are in timestamp order
		g.UserBytes += DocBytes(g.PreloadDoc(i))
	}
	g.deck = g.shuffled(streamPreload+3, deckSize)
	for k, d := range g.deck {
		g.deck[k] = (2*d + 1) * preload / (2 * deckSize)
	}
	return g
}

// shuffled is a seeded permutation of [0, n).
func (g *Gen) shuffled(stream, n int) []int {
	p := make([]int, n)
	r := newRNG(g.seed, stream, 0)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// Stream ids keep the preload, warm-up, arrival-time and per-caller streams
// disjoint.
const (
	streamPreload  = 1 << 20
	streamWarm     = 1 << 19
	streamArrivals = 1 << 18
)

func randValue(r *rng, code int) float64 {
	v := valueLo[code] + r.float()*(valueHi[code]-valueLo[code])
	return math.Round(v*100) / 100
}

// deckSlot is the slot that read j of a stream is aimed at: the deck is walked
// in order, each stream starting elsewhere on it.
func (g *Gen) deckSlot(stream, j int) int { return g.deck[(j+stream*97)%deckSize] }

// Preload is the number of preloaded documents.
func (g *Gen) Preload() int { return len(g.recs) }

func preloadID(i int) string          { return fmt.Sprintf("obs-%08d", i) }
func patientName(p int) string        { return fmt.Sprintf("patient-%05d", p) }
func runID(stream, i int) string      { return fmt.Sprintf("run-%03d-%08d", stream, i) }
func newPatient(stream, i int) string { return fmt.Sprintf("np-%03d-%07d", stream, i/docsPerNewPat) }

func (g *Gen) doc(id, subject string, rc rec, r *rng) *datablinder.Document {
	f := map[string]any{
		"identifier": id[len(id)-6:],
		"status":     statuses[rc.status],
		"code":       codes[rc.code],
		"subject":    subject,
		"effective":  rc.effective,
		"issued":     rc.effective + int64(r.intn(30*24*3600)),
		"performer":  fmt.Sprintf("dr-%03d", r.intn(performers)),
		"value":      rc.value,
	}
	if g.w.Rich {
		f["interpretation"] = interps[rc.interp]
	}
	return &datablinder.Document{ID: id, Fields: f}
}

// PreloadDoc regenerates preloaded document i.
func (g *Gen) PreloadDoc(i int) *datablinder.Document {
	r := newRNG(g.seed, streamPreload+1, i)
	return g.doc(preloadID(i), patientName(g.recs[i].patient), g.recs[i], &r)
}

// RunDoc regenerates the document that insert i of a stream writes. Its
// subject is a patient no preloaded document has.
func (g *Gen) RunDoc(stream, i int) *datablinder.Document {
	r := newRNG(g.seed, stream, i)
	rc := rec{
		code:      r.intn(len(codes)),
		status:    r.intn(len(statuses)),
		interp:    r.intn(len(interps)),
		effective: baseEffective + int64(r.intn(spanEffective)),
	}
	rc.value = randValue(&r, rc.code)
	return g.doc(runID(stream, i), newPatient(stream, i), rc, &r)
}

func (g *Gen) ids(set []uint64) []string {
	var out []string
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, preloadID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}

func (g *Gen) and(a, b string) []uint64 {
	pa, pb := g.posting[a], g.posting[b]
	out := make([]uint64, (len(g.recs)+63)/64)
	if pa == nil || pb == nil {
		return out
	}
	for i := range out {
		out[i] = pa[i] & pb[i]
	}
	return out
}
