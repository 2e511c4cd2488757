package main

import (
	"sort"
	"strings"

	"datablinder/benchmark/load"
)

// services whose calls are reported as tactics.<svc>.*; "doc" is the
// document store, the rest are tactic cloud halves.
var services = []string{"doc", "det", "mitra", "rnd", "agg", "biex", "ope"}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func p(values []float64, q float64) float64 {
	sort.Float64s(values)
	return load.Quantile(values, q)
}

// fromSpans derives the span-based per-layer metrics of one traced window.
func fromSpans(spans []span, m metrics) {
	var ops []span
	upperByOp := map[int64][]span{}
	lowerByShard := map[int][]span{}
	var uppers []span
	for _, s := range spans {
		switch s.Layer {
		case layerOp:
			ops = append(ops, s)
		case layerUpper:
			uppers = append(uppers, s)
			if s.Parent != 0 {
				upperByOp[s.Parent] = append(upperByOp[s.Parent], s)
			}
		case layerLower:
			lowerByShard[s.Shard] = append(lowerByShard[s.Shard], s)
		}
	}

	// core: an op's self time is its span minus the union of the engine's
	// calls into the cloud; the union's disjoint pieces are its RPC waves.
	type perClass struct {
		self                       []float64
		n, rpcs, waves, shardsSeen float64
	}
	classes := map[string]*perClass{}
	var selfTotal, durTotal int64
	for _, op := range ops {
		kids := upperByOp[op.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, end int64
		waves, rpcs := 0, 0
		shards := map[int]bool{}
		for _, k := range kids {
			rpcs += len(k.Calls)
			shards[k.Shard] = true
			if k.Start > end || waves == 0 {
				waves++
				covered += k.End - k.Start
				end = k.End
			} else if k.End > end {
				covered += k.End - end
				end = k.End
			}
		}
		self := op.End - op.Start - covered
		selfTotal += self
		durTotal += op.End - op.Start
		c := classes[op.Class]
		if c == nil {
			c = &perClass{}
			classes[op.Class] = c
		}
		c.self = append(c.self, us(self))
		c.n++
		c.rpcs += float64(rpcs)
		c.waves += float64(waves)
		c.shardsSeen += float64(len(shards))
	}
	for c := load.Class(0); c < load.NumClasses; c++ {
		pc := classes[c.String()]
		if pc == nil {
			pc = &perClass{n: 1}
		}
		m.Set("core.self_us_p50."+c.String(), p(pc.self, 0.5), "us")
		m.Set("core.rpcs_per_op."+c.String(), pc.rpcs/pc.n, "count")
		m.Set("core.rtt_waves_per_op."+c.String(), pc.waves/pc.n, "count")
		m.Set("ring.shards_per_op."+c.String(), pc.shardsSeen/pc.n, "count")
	}
	m.Set("core.self_share", ratio(float64(selfTotal), float64(durTotal)), "ratio")

	// tactics and ring: engine calls before the coalescer, by RPC service
	// and by shard.
	nOps := float64(max(len(ops), 1))
	calls := map[string]float64{}
	durs := map[string][]float64{}
	perShard := map[int]float64{}
	for _, u := range uppers {
		seen := map[string]bool{}
		for _, name := range u.Calls {
			svc, _, _ := strings.Cut(name, ".")
			calls[svc]++
			seen[svc] = true
		}
		for svc := range seen {
			durs[svc] = append(durs[svc], us(u.End-u.Start))
		}
		perShard[u.Shard] += float64(len(u.Calls))
	}
	for _, svc := range services {
		m.Set("tactics."+svc+".calls_per_op", calls[svc]/nOps, "count")
		m.Set("tactics."+svc+".rpc_us_p50", p(durs[svc], 0.5), "us")
	}
	lo, hi := 0.0, 0.0
	for _, n := range perShard {
		if lo == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	m.Set("ring.call_skew", ratio(hi, lo), "ratio")

	// coalesce and transport: an engine call waits in the coalescer from its
	// start to the start of the socket call that completes it, which is the
	// last socket call on its shard to end inside it.
	var waits, rtts []float64
	for shard, lows := range lowerByShard {
		sort.Slice(lows, func(a, b int) bool { return lows[a].End < lows[b].End })
		for _, l := range lows {
			rtts = append(rtts, us(l.End-l.Start))
		}
		for _, u := range uppers {
			if u.Shard != shard {
				continue
			}
			k := sort.Search(len(lows), func(i int) bool { return lows[i].End > u.End }) - 1
			if k >= 0 && lows[k].Start >= u.Start {
				waits = append(waits, us(lows[k].Start-u.Start))
			}
		}
	}
	m.Set("coalesce.wait_us_p50", p(waits, 0.5), "us")
	m.Set("coalesce.wait_us_p99", p(waits, 0.99), "us")
	m.Set("transport.rtt_us_p50", p(rtts, 0.5), "us")
	m.Set("transport.rtt_us_p99", p(rtts, 0.99), "us")
}

// lowerP50 is the median socket-call time of a ladder rung, in microseconds.
func lowerP50(spans []span) float64 {
	var d []float64
	for _, s := range spans {
		if s.Layer == layerLower {
			d = append(d, us(s.End-s.Start))
		}
	}
	return p(d, 0.5)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
