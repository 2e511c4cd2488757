package core

import (
	"fmt"
	"sort"
	"testing"

	"datablinder/internal/crypto/primitives"
	"datablinder/internal/model"
	ssebiex "datablinder/internal/sse/biex"
	"datablinder/internal/store/kvstore"
	tbiex "datablinder/internal/tactics/biex"
	"datablinder/internal/transport"
)

// boolFuzzIndex is a small 3-shard BIEX-2Lev index with its plaintext twin:
// status=final spills over four buckets, codes rotate, seq is unique, and
// the value "none" is never inserted under any field.
type boolFuzzIndex struct {
	client *ssebiex.Client
	shards []*ssebiex.Server
	docs   map[string]map[string]string
}

var (
	boolFuzzFields = []string{"status", "code", "seq"}
	boolFuzzValues = map[string][]string{
		"status": {"final", "draft", "amended", "none"},
		"code":   {"a", "b", "c", "d", "none"},
		"seq":    {"0", "7", "64", "149", "none"},
	}
)

func (ix *boolFuzzIndex) shardOf(label string) int {
	h := uint32(2166136261)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint32(label[i])) * 16777619
	}
	return int(h % uint32(len(ix.shards)))
}

func newBoolFuzzIndex(tb testing.TB) *boolFuzzIndex {
	var key primitives.Key
	for i := range key {
		key[i] = byte(0x60 + i)
	}
	client, err := ssebiex.NewClient(key, kvstore.New(), ssebiex.Variant2Lev)
	if err != nil {
		tb.Fatal(err)
	}
	ix := &boolFuzzIndex{client: client, docs: make(map[string]map[string]string)}
	for i := 0; i < 3; i++ {
		ix.shards = append(ix.shards, ssebiex.NewServer(kvstore.New(), "fuzz"))
	}
	for i := 0; i < 150; i++ {
		doc := map[string]string{
			"status": []string{"final", "final", "draft", "final", "amended", "final", "final"}[i%7],
			"code":   []string{"a", "b", "c", "d"}[i/3%4],
			"seq":    fmt.Sprint(i),
		}
		id := fmt.Sprintf("d%03d", i)
		ix.docs[id] = doc
		kws := make([]string, 0, len(doc))
		for f, v := range doc {
			kws = append(kws, f+"="+v)
		}
		groups, err := client.Insert("fuzz", id, kws, ix.shardOf)
		if err != nil {
			tb.Fatal(err)
		}
		for s, e := range groups {
			if err := ix.shards[s].Insert(*e); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if n, _ := client.Buckets("fuzz", "status=final"); n < 3 {
		tb.Fatalf("status=final spans %d spill buckets, want >= 3", n)
	}
	return ix
}

// fuzzPredicate decodes a predicate tree from fuzz bytes: one byte picks the
// node kind, the next ones its field and value or its arity. Exhausted input
// reads as zeros, so every byte string is some tree.
func fuzzPredicate(data *[]byte, depth int) Predicate {
	next := func() int {
		if len(*data) == 0 {
			return 0
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return int(b)
	}
	kind := next() % 6
	if depth >= 5 && kind > 2 {
		kind = 0
	}
	switch kind {
	case 3:
		return Not{Pred: fuzzPredicate(data, depth+1)}
	case 4, 5:
		preds := make([]Predicate, 1+next()%3)
		for i := range preds {
			preds[i] = fuzzPredicate(data, depth+1)
		}
		if kind == 4 {
			return And{Preds: preds}
		}
		return Or{Preds: preds}
	default:
		field := boolFuzzFields[next()%len(boolFuzzFields)]
		values := boolFuzzValues[field]
		return Eq{Field: field, Value: values[next()%len(values)]}
	}
}

func evalPredicate(p Predicate, doc map[string]string) bool {
	switch q := p.(type) {
	case Eq:
		return doc[q.Field] == q.Value
	case Not:
		return !evalPredicate(q.Pred, doc)
	case And:
		for _, c := range q.Preds {
			if !evalPredicate(c, doc) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range q.Preds {
			if evalPredicate(c, doc) {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("unexpected predicate %T", p))
}

// FuzzBoolToken drives the whole boolean path below the engine on a fuzzed
// predicate tree: compileDNF, the BIEX token compiler (anchor choice, per-
// shard grouping, candidate source), the binary biex.search codec in both
// directions, and the 3-shard search. Nothing may panic, a query the engine
// would hand to BIEX must compile, and the resolved ids must equal the
// tree evaluated over the plaintext documents.
func FuzzBoolToken(f *testing.F) {
	ix := newBoolFuzzIndex(f)
	codec := transport.LookupCodec(tbiex.Service + ".search")
	if codec == nil {
		f.Fatal("biex.search has no registered codec")
	}
	f.Add([]byte{0, 0, 0})                                     // status=final
	f.Add([]byte{4, 1, 0, 0, 0, 0, 1, 0})                      // status=final ∧ code=a
	f.Add([]byte{4, 2, 0, 0, 0, 0, 1, 1, 3, 0, 1, 2})          // … ∧ code=b ∧ ¬code=c
	f.Add([]byte{4, 1, 0, 0, 0, 0, 2, 1})                      // status=final ∧ seq=7: rare anchor
	f.Add([]byte{5, 1, 4, 1, 0, 0, 1, 0, 1, 3, 4, 1, 0, 2, 2}) // (status=draft ∧ code=d) ∨ (seq=64 ∧ status=final)
	f.Add([]byte{3, 5, 1, 3, 0, 0, 0, 3, 0, 1, 0})             // ¬(¬status=final ∨ ¬code=a)
	f.Add([]byte{4, 1, 0, 0, 0, 3, 3, 0, 0, 0})                // status=final ∧ ¬¬status=final
	f.Add([]byte{4, 1, 0, 1, 4, 0, 0, 3})                      // code=none ∧ status=none
	f.Add([]byte{3, 0, 0, 0})                                  // ¬status=final: no anchor

	f.Fuzz(func(t *testing.T, data []byte) {
		pred := fuzzPredicate(&data, 0)
		q, err := compileDNF(pred, false)
		if err != nil {
			return // DNF blow-up: the engine falls back to set evaluation
		}
		query := make(ssebiex.Query, len(q))
		for i, conj := range q {
			for _, l := range conj {
				query[i] = append(query[i], ssebiex.Literal{
					Keyword: l.Field + "=" + model.ValueToString(l.Value), Negated: l.Negated})
			}
		}
		toks, err := ix.client.Token("fuzz", query, ix.shardOf)
		if !boolQueryValid(q) {
			if err == nil {
				t.Fatalf("%v: a query with an unanchored conjunction compiled", query)
			}
			return
		}
		if err != nil {
			t.Fatalf("%v: Token: %v", query, err)
		}
		var vids []string
		for s, tok := range toks {
			wire, err := codec.EncodeArgs(nil, &tbiex.SearchArgs{Namespace: "fuzz", Token: *tok})
			if err != nil {
				t.Fatalf("%v: encoding shard %d's token: %v", query, s, err)
			}
			args := codec.NewArgs().(*tbiex.SearchArgs)
			if err := codec.DecodeArgs(wire, args); err != nil {
				t.Fatalf("%v: decoding shard %d's token: %v", query, s, err)
			}
			got, err := ix.shards[s].Search(args.Token)
			if err != nil {
				t.Fatalf("%v: shard %d: %v", query, s, err)
			}
			vids = append(vids, got...)
		}
		got, err := ix.client.Resolve("fuzz", vids)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for id, doc := range ix.docs {
			if evalPredicate(pred, doc) {
				want = append(want, id)
			}
		}
		sort.Strings(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v\n  got  %v\n  want %v", query, got, want)
		}
	})
}
