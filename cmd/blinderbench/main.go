// Command blinderbench reproduces the paper's §5.2 performance evaluation:
// Figure 5 (per-operation and overall throughput of S_A / S_B / S_C) and
// the overall latency table (avg, p50, p75, p99).
//
// Usage:
//
//	blinderbench                      # laptop-scale run of both experiments
//	blinderbench -experiment fig5     # only the throughput comparison
//	blinderbench -experiment latency  # only the latency table
//	blinderbench -experiment concurrency   # fan-out + pipelining speedups
//	blinderbench -experiment hotpath  # A/B the crypto hot-path caches
//	blinderbench -experiment sharding # 1/2/4/8-shard cloud-tier scaling
//	blinderbench -experiment coalesce # write-path group commit A/B
//	blinderbench -experiment persist  # WAL vs text-AOF durability + recovery
//	blinderbench -experiment planner  # adaptive tactic planner vs static assignments
//	blinderbench -requests 151000 -users 1000   # the paper's full scale
//
// Each scenario runs against a fresh in-process cloud node over the
// loopback transport, so differences isolate tactic cost (S_B vs S_A) and
// middleware cost (S_C vs S_B) rather than network jitter — the paper's
// two headline numbers (~44% and ~1.4% overall throughput loss).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"datablinder/internal/bench"
	"datablinder/internal/cloud"
	"datablinder/internal/keys"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
)

func main() {
	experiment := flag.String("experiment", "all", "fig5 | latency | concurrency | hotpath | sharding | coalesce | persist | planner | all")
	plannerOut := flag.String("planner-out", "BENCH_planner.json", "output path for the planner experiment's JSON result")
	hotpathOut := flag.String("hotpath-out", "BENCH_hotpath.json", "output path for the hotpath experiment's JSON result")
	persistOut := flag.String("persist-out", "BENCH_persist.json", "output path for the persist experiment's JSON result")
	shardingOut := flag.String("sharding-out", "BENCH_sharding.json", "output path for the sharding experiment's JSON result")
	coalesceOut := flag.String("coalesce-out", "BENCH_coalesce.json", "output path for the coalesce experiment's JSON result")
	users := flag.Int("users", 64, "concurrent virtual users (paper: 1000)")
	requests := flag.Int("requests", 4500, "total requests, split insert/search/aggregate (paper: ~151000)")
	seed := flag.Int64("seed", 1, "workload seed")
	netDelay := flag.Duration("netdelay", 2*time.Millisecond, "simulated gateway->cloud RTT per RPC (paper deployment spanned private and public clouds); 0 disables")
	flag.Parse()
	netDelaySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "netdelay" {
			netDelaySet = true
		}
	})

	if err := run(*experiment, *users, *requests, *seed, *netDelay, netDelaySet, *hotpathOut, *shardingOut, *coalesceOut, *persistOut, *plannerOut); err != nil {
		log.Fatalf("blinderbench: %v", err)
	}
}

func run(experiment string, users, requests int, seed int64, netDelay time.Duration, netDelaySet bool, hotpathOut, shardingOut, coalesceOut, persistOut, plannerOut string) error {
	switch experiment {
	case "fig5", "latency", "concurrency", "hotpath", "sharding", "coalesce", "persist", "planner", "all":
	default:
		return fmt.Errorf("unknown experiment %q (want fig5, latency, concurrency, hotpath, sharding, coalesce, persist, planner, or all)", experiment)
	}

	if experiment == "planner" || experiment == "all" {
		cfg := bench.DefaultPlannerConfig()
		cfg.Seed = seed
		fmt.Fprintf(os.Stderr, "running planner experiment (rf corpus %d, %d inserts + %d queries per arm, %d callers)...\n",
			cfg.ReadCorpus, cfg.Inserts, cfg.Queries, cfg.Callers)
		r, err := bench.RunPlanner(context.Background(), cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatPlanner(r))
		if err := bench.WritePlannerJSON(r, plannerOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", plannerOut)
		if experiment == "planner" {
			return nil
		}
	}

	if experiment == "persist" || experiment == "all" {
		cfg := bench.DefaultPersistConfig()
		cfg.Seed = seed
		fmt.Fprintf(os.Stderr, "running persist experiment (%d Set ops per cell, policies %v, callers %v, recovery over %d records)...\n",
			cfg.Inserts, cfg.Policies, cfg.CallerCounts, cfg.RecoveryRecords)
		r, err := bench.RunPersist(context.Background(), cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatPersist(r))
		if err := bench.WritePersistJSON(r, persistOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", persistOut)
		if experiment == "persist" {
			return nil
		}
	}

	if experiment == "coalesce" || experiment == "all" {
		cfg := bench.DefaultCoalesceConfig()
		cfg.Seed = seed
		fmt.Fprintf(os.Stderr, "running coalesce experiment (%d shards, %d callers, %d inserts + %d gets per arm)...\n",
			cfg.Shards, cfg.Callers, cfg.Inserts, cfg.Gets)
		r, err := bench.RunCoalesce(context.Background(), cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatCoalesce(r))
		if err := bench.WriteCoalesceJSON(r, coalesceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", coalesceOut)
		if experiment == "coalesce" {
			return nil
		}
	}

	if experiment == "sharding" || experiment == "all" {
		cfg := bench.DefaultShardingConfig()
		cfg.Seed = seed
		fmt.Fprintf(os.Stderr, "running sharding experiment (shard counts %v, %d inserts + %d queries per tier)...\n",
			cfg.ShardCounts, cfg.Inserts, cfg.EqQueries+cfg.BoolQueries+cfg.RangeQueries)
		r, err := bench.RunSharding(context.Background(), cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatSharding(r))
		if err := bench.WriteShardingJSON(r, shardingOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", shardingOut)
		if experiment == "sharding" {
			return nil
		}
	}

	if experiment == "hotpath" || experiment == "all" {
		cfg := bench.DefaultHotpathConfig()
		cfg.Seed = seed
		fmt.Fprintf(os.Stderr, "running hotpath experiment (%d inserts/arm, %d-bit Paillier)...\n", cfg.Docs, cfg.PaillierBits)
		r, err := bench.RunHotpath(context.Background(), cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatHotpath(r))
		if err := bench.WriteHotpathJSON(r, hotpathOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", hotpathOut)
		if experiment == "hotpath" {
			return nil
		}
	}

	if experiment == "concurrency" || experiment == "all" {
		cfg := bench.DefaultConcurrencyConfig()
		// The concurrency experiment keeps its own higher default RTT (round
		// trips must dominate for the speedups to be meaningful); an explicit
		// -netdelay still overrides it.
		if netDelaySet {
			cfg.NetDelay = netDelay
		}
		fmt.Fprintf(os.Stderr, "running concurrency experiment (%d clients, simulated RTT %v)...\n", cfg.Clients, cfg.NetDelay)
		r, err := bench.RunConcurrency(context.Background(), cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatConcurrency(r))
		if experiment == "concurrency" {
			return nil
		}
	}

	newEnv := func() (transport.Conn, keys.Provider, *kvstore.Store, func(), error) {
		node, err := cloud.NewNode(cloud.Options{})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		kp, err := keys.NewRandomStore()
		if err != nil {
			node.Close()
			return nil, nil, nil, nil, err
		}
		local := kvstore.New()
		cleanup := func() {
			node.Close()
			local.Close()
		}
		return transport.NewLoopback(node.Mux), kp, local, cleanup, nil
	}

	base := bench.Config{Users: users, Requests: requests, Seed: seed, NetDelay: netDelay}
	fmt.Fprintf(os.Stderr, "running S_A, S_B, S_C with %d users x %d requests each (simulated RTT %v)...\n", users, requests, netDelay)
	a, b, c, err := bench.RunAll(context.Background(), base, newEnv)
	if err != nil {
		return err
	}

	if experiment == "fig5" || experiment == "all" {
		fmt.Println(bench.FormatFigure5(a, b, c))
	}
	if experiment == "latency" || experiment == "all" {
		fmt.Println(bench.FormatLatencyTable(a, b, c))
	}
	return nil
}
