// Command dblayers is the traced run of the benchmark: the same workloads and
// seeds as dbbench, with a span recorded at every layer boundary, from the
// benchmark's own files. It assembles the gateway the way datablinder.Open
// does, but builds each shard's connection chain itself as
//
//	engine -> span(upper) -> coalesce -> span(lower) -> transport.Dial
//
// so that the program is measured from outside, unedited. It reports
// per-layer metrics only; end-to-end metrics always come from the untraced
// dbbench. Because it reaches into datablinder/internal, a refactor there can
// stop it building without touching the gated numbers.
//
//	dblayers -cloudserver <bin> -workdir <dir> --workload paper_mix --seed 1 --seconds 12 --trace 1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"datablinder/benchmark/load"
	"datablinder/internal/cloud/ring"
	"datablinder/internal/coalesce"
	"datablinder/internal/core"
	"datablinder/internal/keys"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

type metrics = load.Metrics

func main() {
	var (
		bin      = flag.String("cloudserver", "", "path of the built cmd/cloudserver binary")
		workdir  = flag.String("workdir", "", "directory for the child's data and logs (created, then removed)")
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 12, "total length of the measured windows")
		_        = flag.Int("trace", 1, "accepted for symmetry with dbbench")
		scale    = flag.Float64("scale", 1, "multiplies the preload size and open-loop rate (smoke test)")
		traceOut = flag.String("trace-out", "", "write the traced window's spans to this file as JSON")
	)
	flag.Parse()
	if err := run(*bin, *workdir, *workload, *seed, *seconds, *scale, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "dblayers:", err)
		os.Exit(1)
	}
}

// gateway is an engine over a connection chain the harness built itself.
type gateway struct {
	engine *core.Engine
	local  *kvstore.Store
	cloud  transport.Conn
	coals  []*coalesce.Conn
	target *engineTarget
}

// assemble builds the traced gateway over one already-open connection per
// shard. dial-side connections are owned by the gateway from here on.
func assemble(ctx context.Context, tr *tracer, socks []transport.Conn, w load.Workload) (*gateway, error) {
	provider, err := keys.NewRandomStore()
	if err != nil {
		return nil, err
	}
	g := &gateway{local: kvstore.New()}
	uppers := make([]transport.Conn, len(socks))
	for i, sock := range socks {
		co := coalesce.New(&spanConn{under: sock, tr: tr, layer: layerLower, shard: i}, coalesce.Options{})
		g.coals = append(g.coals, co)
		uppers[i] = &spanConn{under: co, tr: tr, layer: layerUpper, shard: i}
		if name := transport.ConnCodec(uppers[i]).Name(); name != "binary" {
			return nil, fmt.Errorf("span chain of shard %d negotiated the %s codec, not binary", i, name)
		}
	}
	g.cloud = ring.NewClient(uppers, 0)
	registry, err := tactics.Registry()
	if err != nil {
		return nil, err
	}
	g.engine, err = core.NewEngine(core.Config{
		Keys: provider, Cloud: g.cloud, Local: g.local, Registry: registry,
		Coalesce: coalesce.Options{Disabled: true}, // the chain above already holds one
	})
	if err != nil {
		return nil, err
	}
	if err := g.engine.RegisterSchema(ctx, w.Schema()); err != nil {
		return nil, err
	}
	g.target = &engineTarget{e: g.engine, tr: tr}
	return g, nil
}

func (g *gateway) close() {
	if g.engine != nil {
		g.engine.Close()
	}
	if g.cloud != nil {
		g.cloud.Close() //nolint:errcheck // teardown; closes coalescers and sockets
	}
	g.local.Close() //nolint:errcheck // in-memory
}

func (g *gateway) coalesceStats() coalesce.Stats {
	var s coalesce.Stats
	for _, c := range g.coals {
		s.Merge(c.Stats())
	}
	return s
}

func dialAll(addrs []string) ([]transport.Conn, error) {
	var socks []transport.Conn
	for _, addr := range addrs {
		c, err := transport.Dial(addr, transport.DialOptions{})
		if err != nil {
			for _, s := range socks {
				s.Close()
			}
			return nil, err
		}
		socks = append(socks, c)
	}
	return socks, nil
}

// window runs the k-th measured window of the workload's load shape; each
// window has streams of its own, so no two insert the same document.
func window(ctx context.Context, t load.Target, g *load.Gen, w load.Workload, k int, d time.Duration) *load.Window {
	if w.Rate > 0 {
		return load.RunOpen(ctx, t, g, k, w.Rate, d)
	}
	return load.RunClosed(ctx, t, g, k*load.Callers, load.Callers, d)
}

func meanMillis(w *load.Window) float64 {
	ms := w.Millis(load.NumClasses)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	return ratio(sum, float64(len(ms)))
}

func run(bin, workdir, name string, seed int64, seconds, scale float64, traceOut string) error {
	w, warmOps, err := load.Scaled(name, scale)
	if err != nil {
		return err
	}
	if bin == "" || workdir == "" {
		return errors.New("-cloudserver and -workdir are required")
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	ctx := context.Background()
	gen := load.NewGen(seed, w)
	m := metrics{}
	tr := &tracer{origin: time.Now()}

	child, err := load.StartCloud(bin, filepath.Join(workdir, "data"), w.Fsync)
	if err != nil {
		return err
	}
	defer child.Close()
	socks, err := dialAll(child.Addrs)
	if err != nil {
		return err
	}
	gw, err := assemble(ctx, tr, socks, w)
	if err != nil {
		return err
	}
	defer gw.close()
	if err := load.Preload(ctx, gw.target, gen); err != nil {
		return err
	}
	if _, _, err := load.Warmup(ctx, gw.target, gen, warmOps); err != nil {
		return err
	}

	// Window A, spans off: the traced topology's own reference, and the
	// per-class latencies. Window B, spans on: everything span-derived.
	third := time.Duration(seconds / 3 * float64(time.Second))
	ref := window(ctx, gw.target, gen, w, 0, third)
	for c := load.Class(0); c < load.NumClasses; c++ {
		m.Set("datablinder."+c.String()+"_p50_ms", load.Quantile(ref.Millis(c), 0.5), "ms")
	}
	m.Set("datablinder.op_p99_ms", load.Quantile(ref.Millis(load.NumClasses), 0.99), "ms")

	var store0, store1 walVars
	storeErr := child.Vars("datablinder_store", &store0)
	wire0 := transport.WireStats()
	coal0 := gw.coalesceStats()
	cpu0, err := child.CPU()
	if err != nil {
		return err
	}
	tr.on.Store(true)
	traced := window(ctx, gw.target, gen, w, 1, third)
	tr.on.Store(false)
	cpu1, err := child.CPU()
	if err != nil {
		return err
	}
	coal1 := gw.coalesceStats()
	wire1 := transport.WireStats()
	if storeErr == nil {
		storeErr = child.Vars("datablinder_store", &store1)
	}
	spans := tr.take()
	failures := append(ref.Failures(), traced.Failures()...)
	attempted := len(ref.Samples) + len(traced.Samples)
	ops := float64(len(traced.Millis(load.NumClasses)))
	if ops == 0 {
		return errors.New("no operation completed in the traced window")
	}

	fromSpans(spans, m)
	// Tracing overhead: mean operation latency with spans on against spans
	// off on the same topology, given with its base.
	m.Set("datablinder.trace_base_ms", meanMillis(ref), "ms")
	m.Set("datablinder.trace_overhead_pct", 100*(meanMillis(traced)/meanMillis(ref)-1), "%")
	fromCoalesce(coal0, coal1, ops, m)
	fromWire(wire0, wire1, ops, m)
	if storeErr != nil {
		// The contract wants every metric on every run, so these read 0; the
		// note says they were not measured.
		fmt.Printf("ABSENT wal.* counters: %v\n", storeErr)
	}
	fromStore(store0, store1, ops, m)
	m.Set("cloud.cpu_ms_per_op", float64(cpu1-cpu0)/float64(time.Millisecond)/ops, "ms")

	// Window C, open loop only: 1.4 x the rate, to see where the queue goes.
	m.Set("datablinder.overload_p99_ms", 0, "ms")
	m.Set("datablinder.overload_backlog_max", 0, "count")
	if w.Rate > 0 {
		over := load.RunOpen(ctx, gw.target, gen, 2, load.Overload*w.Rate, third)
		failures = append(failures, over.Failures()...)
		attempted += len(over.Samples)
		m.Set("datablinder.overload_p99_ms", load.Quantile(over.Millis(load.NumClasses), 0.99), "ms")
		m.Set("datablinder.overload_backlog_max", float64(over.BacklogMax), "count")
	}

	rss, err := child.PeakRSSMB()
	if err != nil {
		return err
	}
	m.Set("cloud.peak_rss_mb", rss, "MB")
	if rss, err = load.PeakRSSMB(os.Getpid()); err != nil {
		return err
	}
	m.Set("core.gateway_peak_rss_mb", rss, "MB")

	// Restart: after SIGKILL where the workload is about durability, after a
	// clean stop elsewhere. Either way every acknowledged insert of the
	// traced window must still be readable.
	docs := float64(w.Preload + len(ref.AckedInserts()) + len(traced.AckedInserts()))
	if w.Crash {
		child.Kill()
	} else {
		child.Stop()
	}
	kvBytes, docBytes, err := diskBytes(child.DataDir)
	if err != nil {
		return err
	}
	m.Set("kvstore.disk_bytes_per_doc", float64(kvBytes)/docs, "B")
	m.Set("docstore.disk_bytes_per_doc", float64(docBytes)/docs, "B")
	recovery, err := child.Restart()
	if err != nil {
		return fmt.Errorf("restarting the cloud: %w", err)
	}
	m.Set("wal.recovery_s", recovery.Seconds(), "s")
	var after walVars
	if err := child.Vars("datablinder_store", &after); err != nil {
		fmt.Printf("ABSENT wal.recovery_records: %v\n", err)
	}
	m.Set("wal.recovery_records", after.RecoveryRecords, "count")
	lost := 0
	acked := traced.AckedInserts()
	for k := 0; k < len(acked); k += max(len(acked)/200, 1) {
		attempted++
		if err := gen.CheckInserted(ctx, gw.target, acked[k][0], acked[k][1]); err != nil {
			failures = append(failures, err)
			lost++
		}
	}
	m.Set("wal.acked_writes_lost", float64(lost), "count")

	if err := ladder(ctx, seed, w, scale, workdir, m); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if err := cryptoProbes(m); err != nil {
		return err
	}
	if err := storeProbes(m); err != nil {
		return err
	}

	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			return err
		}
	}
	fmt.Printf("workload %s seed %d (traced): attempted_ops %d failed_ops %d\n", w.Name, seed, attempted, len(failures))
	for i, f := range failures {
		if i == 10 {
			break
		}
		fmt.Printf("  FAILED %v\n", f)
	}
	for _, k := range m.Names() {
		fmt.Printf("  %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return load.PrintResult(len(failures) == 0, attempted, len(failures), m)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// walVars is the part of the child's datablinder_store expvar the wal.*
// metrics are made of.
type walVars struct {
	Appends         float64 `json:"appends"`
	AppendBytes     float64 `json:"append_bytes"`
	Fsyncs          float64 `json:"fsyncs"`
	FsyncMeanUs     float64 `json:"fsync_mean_us"`
	RecoveryRecords float64 `json:"recovery_records"`
}

func fromStore(a, b walVars, ops float64, m metrics) {
	m.Set("wal.appends_per_op", (b.Appends-a.Appends)/ops, "count")
	m.Set("wal.append_bytes_per_op", (b.AppendBytes-a.AppendBytes)/ops, "B")
	m.Set("wal.fsyncs_per_op", (b.Fsyncs-a.Fsyncs)/ops, "count")
	m.Set("wal.records_per_fsync", ratio(b.Appends-a.Appends, b.Fsyncs-a.Fsyncs), "count")
	m.Set("wal.fsync_mean_us", b.FsyncMeanUs, "us") // the child's mean since it started
}

func fromCoalesce(a, b coalesce.Stats, ops float64, m metrics) {
	flushes := float64(b.Flushes - a.Flushes)
	sub := float64(b.SubCalls - a.SubCalls)
	m.Set("coalesce.subcalls_per_flush", ratio(sub, flushes), "count")
	m.Set("coalesce.merged_ratio", ratio(float64(b.CoalescedSubCalls-a.CoalescedSubCalls), sub), "ratio")
	m.Set("coalesce.dedup_hits_per_kop", 1000*float64(b.DedupHits-a.DedupHits)/ops, "count")
	for _, trig := range []string{"size", "bytes", "window", "gather", "drain"} {
		m.Set("coalesce.flush_share."+trig, ratio(float64(b.FlushByTrigger[trig]-a.FlushByTrigger[trig]), flushes), "ratio")
	}
}

func fromWire(a, b transport.WireStatsSnapshot, ops float64, m metrics) {
	var frames, enc, dec float64
	for name, c := range b.Codecs {
		frames += float64(c.Frames - a.Codecs[name].Frames)
	}
	for name, c := range b.Methods {
		enc += float64(c.EncodeNs - a.Methods[name].EncodeNs)
		dec += float64(c.DecodeNs - a.Methods[name].DecodeNs)
	}
	m.Set("transport.frames_per_op", frames/ops, "count")
	m.Set("transport.wire_bytes_per_op", float64(b.TotalBytes()-a.TotalBytes())/ops, "B")
	m.Set("transport.encode_us_per_op", enc/1e3/ops, "us")
	m.Set("transport.decode_us_per_op", dec/1e3/ops, "us")
}

// diskBytes splits the bytes under the cloud's data directory into the index
// store's and the document store's.
func diskBytes(dir string) (kv, docs int64, err error) {
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		switch parts := strings.Split(rel, string(filepath.Separator)); {
		case len(parts) > 1 && parts[1] == "index":
			kv += info.Size()
		case len(parts) > 1 && parts[1] == "docs":
			docs += info.Size()
		}
		return nil
	})
	return kv, docs, err
}
