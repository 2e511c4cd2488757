// Command blinderbench reproduces the paper's §5.2 performance evaluation:
// Figure 5 (per-operation and overall throughput of S_A / S_B / S_C) and
// the overall latency table (avg, p50, p75, p99).
//
// Usage:
//
//	blinderbench                      # laptop-scale run of both experiments
//	blinderbench -experiment fig5     # only the throughput comparison
//	blinderbench -experiment latency  # only the latency table
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
	experiment := flag.String("experiment", "all", "fig5 | latency | all")
	users := flag.Int("users", 64, "concurrent virtual users (paper: 1000)")
	requests := flag.Int("requests", 4500, "total requests, split insert/search/aggregate (paper: ~151000)")
	seed := flag.Int64("seed", 1, "workload seed")
	netDelay := flag.Duration("netdelay", 2*time.Millisecond, "simulated gateway->cloud RTT per RPC (paper deployment spanned private and public clouds); 0 disables")
	flag.Parse()

	if err := run(*experiment, *users, *requests, *seed, *netDelay); err != nil {
		log.Fatalf("blinderbench: %v", err)
	}
}

func run(experiment string, users, requests int, seed int64, netDelay time.Duration) error {
	switch experiment {
	case "fig5", "latency", "all":
	default:
		return fmt.Errorf("unknown experiment %q (want fig5, latency or all)", experiment)
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
