// Benchmarks regenerating the paper's evaluation artifacts:
//
//	Figure 5 rows    -> BenchmarkFig5Insert/*, BenchmarkFig5Search/*,
//	                    BenchmarkFig5Aggregate/*  (S_A/S_B/S_C columns;
//	                    cmd/blinderbench prints the full figure + deltas)
//	§5.2 latency     -> the same benchmarks' ns/op are the per-request
//	                    latencies; cmd/blinderbench -experiment latency
//	                    prints the percentile table
//	Table 2 catalog  -> asserted by TestTable2Catalog (internal/spi);
//	                    printed by cmd/tacticsctl table2
//
// Ablation benchmarks for the design choices called out in DESIGN.md:
//
//	BenchmarkEqualityTactics/* — DET vs Mitra vs Sophos vs RND vs BIEX
//	BenchmarkRangeTactics/*    — OPE sorted-index vs ORE compare-scan
//	BenchmarkAggregates/*      — homomorphic vs fetch-and-sum averages
//	BenchmarkTransport/*       — loopback vs real TCP round trips
package datablinder_test

import (
	"context"
	"datablinder/internal/cloud/ring"
	"fmt"
	"testing"

	"datablinder"

	"datablinder/internal/bench"
	"datablinder/internal/cloud"
	"datablinder/internal/fhir"
	"datablinder/internal/keys"
	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/store/kvstore"
	tbiex "datablinder/internal/tactics/biex"
	"datablinder/internal/transport"
)

// benchEnv builds a fresh in-process cloud + gateway client per benchmark.
func benchEnv(b *testing.B) (transport.Conn, keys.Provider, *kvstore.Store) {
	b.Helper()
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { node.Close() })
	kp, err := keys.NewRandomStore()
	if err != nil {
		b.Fatal(err)
	}
	local := kvstore.New()
	b.Cleanup(func() { local.Close() })
	return transport.NewLoopback(node.Mux), kp, local
}

func benchClient(b *testing.B, schema *datablinder.Schema) *datablinder.Client {
	b.Helper()
	client, err := datablinder.Open(context.Background(), datablinder.Options{InProcessCloud: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	if err := client.RegisterSchema(context.Background(), schema); err != nil {
		b.Fatal(err)
	}
	return client
}

// scenarioOps runs one op kind through a scenario app for b.N iterations.
func scenarioOps(b *testing.B, scenario string, op bench.OpKind) {
	b.Helper()
	conn, kp, local := benchEnv(b)
	ctx := context.Background()
	a, err := bench.NewApp(ctx, scenario, conn, kp, local)
	if err != nil {
		b.Fatal(err)
	}
	gen := fhir.NewGenerator(1, 0, 0)
	// Seed a corpus for search/aggregate benchmarks.
	if op != bench.OpInsert {
		for i := 0; i < 500; i++ {
			if err := a.Insert(ctx, gen.Observation()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch op {
		case bench.OpInsert:
			if err := a.Insert(ctx, gen.Observation()); err != nil {
				b.Fatal(err)
			}
		case bench.OpSearch:
			if _, err := a.SearchEq(ctx, "code", fhir.Codes[i%len(fhir.Codes)]); err != nil {
				b.Fatal(err)
			}
		case bench.OpAggregate:
			if _, err := a.AverageWhere(ctx, "code", fhir.Codes[i%len(fhir.Codes)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig5Insert(b *testing.B) {
	for _, s := range []string{"A", "B", "C"} {
		b.Run("S_"+s, func(b *testing.B) { scenarioOps(b, s, bench.OpInsert) })
	}
}

func BenchmarkFig5Search(b *testing.B) {
	for _, s := range []string{"A", "B", "C"} {
		b.Run("S_"+s, func(b *testing.B) { scenarioOps(b, s, bench.OpSearch) })
	}
}

func BenchmarkFig5Aggregate(b *testing.B) {
	for _, s := range []string{"A", "B", "C"} {
		b.Run("S_"+s, func(b *testing.B) { scenarioOps(b, s, bench.OpAggregate) })
	}
}

// equalitySchema pins one equality tactic onto a single field.
func equalitySchema(tactic string) *datablinder.Schema {
	class := map[string]string{
		"DET": "C4", "Mitra": "C2", "Sophos": "C2", "RND": "C1",
		"BIEX-2Lev": "C3", "BIEX-ZMF": "C3",
	}[tactic]
	return &datablinder.Schema{
		Name: "eqbench-" + tactic,
		Fields: []datablinder.Field{
			datablinder.MustField("kw", datablinder.TypeString,
				fmt.Sprintf("%s, op [I, EQ], tactic [%s]", class, tactic)),
		},
	}
}

// BenchmarkEqualityTactics contrasts the equality-search tactics on a
// shared corpus shape: 400 documents, 20 distinct keywords.
func BenchmarkEqualityTactics(b *testing.B) {
	for _, tactic := range []string{"DET", "Mitra", "Sophos", "RND", "BIEX-2Lev", "BIEX-ZMF"} {
		b.Run(tactic, func(b *testing.B) {
			client := benchClient(b, equalitySchema(tactic))
			col := client.Entities("eqbench-" + tactic)
			ctx := context.Background()
			for i := 0; i < 400; i++ {
				_, err := col.Insert(ctx, &datablinder.Document{
					ID:     fmt.Sprintf("d%04d", i),
					Fields: map[string]any{"kw": fmt.Sprintf("k%02d", i%20)},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := col.SearchIDs(ctx, datablinder.Eq{Field: "kw", Value: fmt.Sprintf("k%02d", i%20)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRangeTactics contrasts OPE's sorted-index range scan with ORE's
// linear compare scan at the same corpus size.
func BenchmarkRangeTactics(b *testing.B) {
	for _, tactic := range []string{"OPE", "ORE"} {
		b.Run(tactic, func(b *testing.B) {
			schema := &datablinder.Schema{
				Name: "rgbench-" + tactic,
				Fields: []datablinder.Field{
					datablinder.MustField("ts", datablinder.TypeInt,
						fmt.Sprintf("C5, op [I, RG], tactic [%s]", tactic)),
				},
			}
			client := benchClient(b, schema)
			col := client.Entities(schema.Name)
			ctx := context.Background()
			for i := 0; i < 1000; i++ {
				_, err := col.Insert(ctx, &datablinder.Document{
					ID:     fmt.Sprintf("d%04d", i),
					Fields: map[string]any{"ts": int64(i * 17)},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := int64((i % 900) * 17)
				if _, err := col.SearchIDs(ctx, datablinder.Between("ts", lo, lo+170)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAggregates contrasts the homomorphic (Paillier) average with
// the gateway-side fetch-and-compute fallback (min runs that path).
func BenchmarkAggregates(b *testing.B) {
	schema := &datablinder.Schema{
		Name: "aggbench",
		Fields: []datablinder.Field{
			datablinder.MustField("v", datablinder.TypeFloat,
				"C4, op [I, EQ], agg [avg, min], tactic [DET, Paillier]"),
		},
	}
	client := benchClient(b, schema)
	col := client.Entities("aggbench")
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		_, err := col.Insert(ctx, &datablinder.Document{
			ID:     fmt.Sprintf("d%04d", i),
			Fields: map[string]any{"v": float64(i)},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("PaillierAvg", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := col.Aggregate(ctx, "v", datablinder.AggAvg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FetchMin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := col.Aggregate(ctx, "v", datablinder.AggMin, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := col.Aggregate(ctx, "v", datablinder.AggCount, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBIEXCompaction contrasts searching a hot keyword whose
// global-multimap list lives in per-update tail cells (dynamic inserts)
// against the same list after 2Lev compaction into packed buckets — the
// read-efficiency motivation for the two-level design.
func BenchmarkBIEXCompaction(b *testing.B) {
	mk := func(b *testing.B, compact bool) (spibench, func()) {
		cloud, kp, local := benchEnv(b)
		conn := ring.Of(cloud)
		ctx := context.Background()
		inst, err := tbiex.Registration2Lev().Factory(spi.Binding{
			Schema: "hot", Keys: kp, Cloud: conn, Local: local,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 800; i++ {
			if err := spi.Apply(ctx, conn, inst, model.OpInsert, fmt.Sprintf("d%04d", i),
				map[string]any{"code": "glucose"}); err != nil {
				b.Fatal(err)
			}
		}
		if compact {
			if err := inst.(*tbiex.Tactic).Compact(ctx, "code", "glucose"); err != nil {
				b.Fatal(err)
			}
		}
		search := func() {
			if ids, err := inst.(spi.EqSearcher).SearchEq(ctx, "code", "glucose"); err != nil || len(ids) != 800 {
				b.Fatalf("search = %d ids, %v", len(ids), err)
			}
		}
		return spibench{search}, func() {}
	}
	b.Run("TailCells", func(b *testing.B) {
		s, done := mk(b, false)
		defer done()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.search()
		}
	})
	b.Run("PackedBuckets", func(b *testing.B) {
		s, done := mk(b, true)
		defer done()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.search()
		}
	})
}

type spibench struct {
	search func()
}

// BenchmarkTransport measures the RPC substrate: in-process loopback vs a
// real TCP socket, for the smallest useful call (document count).
func BenchmarkTransport(b *testing.B) {
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()

	run := func(b *testing.B, conn transport.Conn) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var reply cloud.DocCountReply
			if err := conn.Call(ctx, cloud.DocService, "count",
				cloud.DocCountArgs{Collection: "c"}, &reply); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Loopback", func(b *testing.B) {
		run(b, transport.NewLoopback(node.Mux))
	})
	b.Run("TCP", func(b *testing.B) {
		srv := transport.NewServer(node.Mux)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client, err := transport.Dial(addr, transport.DialOptions{PoolSize: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		run(b, client)
	})
}
