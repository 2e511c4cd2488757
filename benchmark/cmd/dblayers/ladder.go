package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"datablinder/benchmark/load"
	"datablinder/internal/cloud"
	"datablinder/internal/transport"
)

// The ladder splits a socket call's time by adding one thing per rung to an
// in-process copy of the deployment and watching the median socket-call time
// (the lower span) move. It runs the workload's own first operations at one
// caller on a small corpus, so that little else changes between rungs.
const (
	ladderPreload = 240
	ladderOps     = 360
)

type rung struct {
	name    string
	tcp     bool   // real loopback TCP instead of transport.NewLoopback
	persist bool   // WAL-backed stores
	policy  string // fsync policy when persisting
}

// ladder reports transport.socket_us_p50 (TCP minus in-process loopback),
// wal.append_us_p50 (WAL at fsync=never minus in-memory stores),
// wal.fsync_wait_us_p50 (the workload's policy minus never) and
// cloud.exec_us_p50 (the loopback call minus its encode and decode).
func ladder(ctx context.Context, seed int64, w load.Workload, scale float64, workdir string, m metrics) error {
	w.Preload = min(w.Preload, ladderPreload)
	ops := max(int(ladderOps*scale), 30)
	gen := load.NewGen(seed, w)
	rungs := []rung{
		{name: "T0-loopback"},
		{name: "T1-tcp", tcp: true},
		{name: "T2-wal-never", tcp: true, persist: true, policy: "never"},
		{name: "T3-wal-" + w.Fsync, tcp: true, persist: true, policy: w.Fsync},
	}
	p50 := make([]float64, len(rungs))
	codecUs := make([]float64, len(rungs))
	for i, r := range rungs {
		var err error
		if p50[i], codecUs[i], err = climb(ctx, gen, w, r, ops, filepath.Join(workdir, r.name)); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	// On the loopback rung both ends' encode and decode run inside the call.
	m.Set("cloud.exec_us_p50", p50[0]-codecUs[0], "us")
	m.Set("transport.socket_us_p50", p50[1]-p50[0], "us")
	m.Set("wal.append_us_p50", p50[2]-p50[1], "us")
	m.Set("wal.fsync_wait_us_p50", p50[3]-p50[2], "us")
	return nil
}

// climb runs one rung and returns its median socket-call time and the mean
// encode plus decode time per socket call, both in microseconds.
func climb(ctx context.Context, gen *load.Gen, w load.Workload, r rung, ops int, dir string) (p50, codecUs float64, err error) {
	var socks []transport.Conn
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	for s := 0; s < load.Shards; s++ {
		opts := cloud.Options{}
		if r.persist {
			shard := filepath.Join(dir, fmt.Sprintf("shard-%d", s))
			opts = cloud.Options{KVPath: filepath.Join(shard, "index"), DocDir: filepath.Join(shard, "docs"), FsyncPolicy: r.policy}
		}
		node, err := cloud.NewNode(opts)
		if err != nil {
			return 0, 0, err
		}
		closers = append(closers, func() { node.Close() }) //nolint:errcheck // teardown
		if !r.tcp {
			socks = append(socks, transport.NewLoopback(node.Mux))
			continue
		}
		srv := transport.NewServer(node.Mux)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return 0, 0, err
		}
		closers = append(closers, func() { srv.Close() }) //nolint:errcheck // teardown
		sock, err := transport.Dial(addr, transport.DialOptions{})
		if err != nil {
			return 0, 0, err
		}
		socks = append(socks, sock)
	}
	tr := &tracer{origin: time.Now()}
	gw, err := assemble(ctx, tr, socks, w)
	if err != nil {
		for _, s := range socks {
			s.Close()
		}
		return 0, 0, err
	}
	closers = append(closers, gw.close)
	if err := load.Preload(ctx, gw.target, gen); err != nil {
		return 0, 0, err
	}
	wire0 := transport.WireStats()
	tr.on.Store(true)
	for i := 0; i < ops; i++ {
		if err := gen.Op(0, i).Do(ctx, gw.target); err != nil {
			return 0, 0, fmt.Errorf("operation %d: %w", i, err)
		}
	}
	tr.on.Store(false)
	spans := tr.take()
	calls := 0
	for _, s := range spans {
		if s.Layer == layerLower {
			calls++
		}
	}
	codec := metrics{}
	fromWire(wire0, transport.WireStats(), float64(max(calls, 1)), codec)
	return lowerP50(spans), codec["transport.encode_us_per_op"].Value + codec["transport.decode_us_per_op"].Value, nil
}
