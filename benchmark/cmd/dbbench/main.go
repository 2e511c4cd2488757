// Command dbbench is the gated end-to-end benchmark driver. It spawns a real
// cloudserver child (3 shards, WAL-backed), opens a gateway over TCP through
// the public datablinder package only, drives one named workload from a seed,
// checks every result against a plaintext oracle, and prints every end-to-end
// metric by name and unit. The last line of standard output is the result
// object the benchmark contract asks for.
//
//	dbbench -cloudserver <bin> -workdir <dir> --workload paper_mix --seed 1 --seconds 12 --trace 0
//	dbbench -summarize records.jsonl            > baseline.json
//	dbbench -compare old.json new.json          (reads ./BENCHMARK.json for the bounds)
//
// It imports no datablinder/internal package: it must keep building and
// measuring the same thing across refactors of those.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"datablinder"
	"datablinder/benchmark/load"
)

// Checks made after the measured window, each one attempted operation.
const (
	getSample    = 200 // acked inserts read back (all of them after a crash)
	searchSample = 50  // new patients searched
	maxListed    = 10  // failures printed
	// maxLateMillis is the p99 generator lateness from which an open-loop run
	// is invalid. The generator shares a two-core process with the gateway,
	// and the Go runtime preempts a running goroutine only every 10 ms, so
	// it cannot be more punctual than that at the 99th percentile.
	maxLateMillis = 10
)

func main() {
	var (
		bin       = flag.String("cloudserver", "", "path of the built cmd/cloudserver binary")
		workdir   = flag.String("workdir", "", "directory for the child's data and logs (created, then removed)")
		workload  = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 12, "total length of the run's measured windows, one per round")
		trace     = flag.Int("trace", 0, "must be 0: traced runs are cmd/dblayers")
		scale     = flag.Float64("scale", 1, "multiplies the preload size and open-loop rate (smoke test)")
		report    = flag.String("report", "", "append this run as one JSON record to the file")
		summarize = flag.String("summarize", "", "aggregate a file of -report records into a baseline on stdout")
		compare   = flag.Bool("compare", false, "compare two baselines given as arguments against BENCHMARK.json bounds")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *summarize != "":
		err = summarizeFile(*summarize)
	case *trace != 0:
		err = errors.New("dbbench measures untraced only; run.sh sends --trace 1 to dblayers")
	default:
		err = run(*bin, *workdir, *workload, *seed, *seconds, *scale, *report)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbbench:", err)
		os.Exit(1)
	}
}

// deployment is one cloudserver child with a gateway opened on it and the
// workload's corpus preloaded.
type deployment struct {
	cloud  *load.Cloud
	client *datablinder.Client
	col    *datablinder.Collection
}

// setUp is what setup_s times: spawn, Open, RegisterSchema, preload.
func setUp(ctx context.Context, bin, dir string, w load.Workload, g *load.Gen) (*deployment, error) {
	cloud, err := load.StartCloud(bin, dir, w.Fsync)
	if err != nil {
		return nil, err
	}
	d := &deployment{cloud: cloud}
	d.client, err = datablinder.Open(ctx, datablinder.Options{CloudAddrs: cloud.Addrs})
	if err == nil {
		err = d.client.RegisterSchema(ctx, w.Schema())
	}
	if err == nil {
		d.col = d.client.Entities(load.SchemaName)
		err = load.Preload(ctx, d.col, g)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) close() {
	if d.client != nil {
		d.client.Close() //nolint:errcheck // teardown
	}
	d.cloud.Close()
}

// round is one deployment's share of a run: its set-up time, its measured
// window and what the checks after the window found.
type round struct {
	setup     float64 // seconds
	win       *load.Window
	millis    []float64     // the window's successful latencies, sorted
	cpu       time.Duration // gateway + cloudserver over the window
	stored    int64         // bytes under the data directory after a clean stop
	userBytes int64         // plaintext JSON bytes of every document inserted
	attempted int
	failures  []error
	recovery  time.Duration // crash step: restart until accepting
	lost      int           // crash step: acknowledged inserts missing
}

// measure sets a deployment up, warms it, runs one window, checks the
// results against the oracle, and tears it down.
func measure(ctx context.Context, bin, dir string, w load.Workload, g *load.Gen, window time.Duration, warmOps int) (*round, error) {
	start := time.Now()
	d, err := setUp(ctx, bin, dir, w, g)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	r := &round{setup: time.Since(start).Seconds()}

	warmCount, warmBytes, err := load.Warmup(ctx, d.col, g, warmOps)
	if err != nil {
		return nil, err
	}
	cloudCPU0, err := d.cloud.CPU()
	if err != nil {
		return nil, err
	}
	selfCPU0 := load.SelfCPU()
	if w.Rate > 0 {
		r.win = load.RunOpen(ctx, d.col, g, 0, w.Rate, window)
	} else {
		r.win = load.RunClosed(ctx, d.col, g, 0, load.Callers, window)
	}
	r.cpu = load.SelfCPU() - selfCPU0
	cloudCPU1, err := d.cloud.CPU()
	if err != nil {
		return nil, err
	}
	r.cpu += cloudCPU1 - cloudCPU0

	r.failures = r.win.Failures()
	r.attempted = len(r.win.Samples)
	check := func(err error) {
		r.attempted++
		if err != nil {
			r.failures = append(r.failures, err)
		}
	}
	acked := r.win.AckedInserts()

	// ingest_durable: the child dies without a chance to flush, comes back on
	// the same directory, and must still hold every acknowledged insert.
	if w.Crash {
		d.cloud.Kill()
		if r.recovery, err = d.cloud.Restart(); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
	}
	step := 1
	if !w.Crash {
		step = max(len(acked)/getSample, 1)
	}
	for k := 0; k < len(acked); k += step {
		err := g.CheckInserted(ctx, d.col, acked[k][0], acked[k][1])
		if err != nil {
			r.lost++
		}
		check(err)
	}
	for k := 0; k < len(acked); k += max(len(acked)/searchSample, 1) {
		stream := acked[k][0]
		check(g.CheckNewPatient(ctx, d.col, stream, acked[k][1], func(i int) bool { return r.win.Acked(stream, i) }))
	}
	n, err := d.col.Count(ctx)
	if err == nil && n != w.Preload+warmCount+len(acked) {
		err = fmt.Errorf("count is %d, oracle says %d preloaded + %d warm-up + %d acked", n, w.Preload, warmCount, len(acked))
	}
	check(err)
	r.userBytes = g.UserBytes + warmBytes
	for _, a := range acked {
		r.userBytes += load.DocBytes(g.RunDoc(a[0], a[1]))
	}

	// A clean drain, then what is on disk against what the user wrote.
	if err := d.client.Close(); err != nil {
		return nil, fmt.Errorf("closing gateway: %w", err)
	}
	d.client = nil
	d.cloud.Stop()
	if r.stored, err = d.cloud.StoredBytes(); err != nil {
		return nil, err
	}
	if r.millis = r.win.Millis(load.NumClasses); len(r.millis) == 0 {
		return nil, errors.New("no operation completed in the measured window")
	}
	return r, nil
}

func run(bin, workdir, name string, seed int64, seconds, scale float64, report string) error {
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
	g := load.NewGen(seed, w)

	// A run is load.Rounds deployments, each set up afresh and measured for
	// its share of --seconds with the same operation streams. Every gated
	// metric is the median over the rounds: two processes started twice do
	// not run equally fast, and the median of replicas takes that out.
	window := time.Duration(seconds / load.Rounds * float64(time.Second))
	rounds := make([]*round, load.Rounds)
	for i := range rounds {
		if rounds[i], err = measure(ctx, bin, filepath.Join(workdir, fmt.Sprintf("data-%d", i)), w, g, window, warmOps); err != nil {
			return err
		}
	}
	median := func(of func(r *round) float64) float64 {
		v := make([]float64, len(rounds))
		for i, r := range rounds {
			v[i] = of(r)
		}
		sort.Float64s(v)
		return load.Quantile(v, 0.5)
	}
	ops := func(r *round) float64 { return float64(len(r.millis)) }
	rec := record{Workload: w.Name, Seed: seed, Seconds: seconds, Metrics: load.Metrics{}, Detail: load.Metrics{}}
	rec.Metrics.Set("setup_s", median(func(r *round) float64 { return r.setup }), "s")
	rec.Metrics.Set("throughput_ops_s", median(func(r *round) float64 { return ops(r) / r.win.Elapsed.Seconds() }), "1/s")
	rec.Metrics.Set("op_p50_ms", median(func(r *round) float64 { return load.Quantile(r.millis, 0.5) }), "ms")
	rec.Metrics.Set("cpu_ms_per_op", median(func(r *round) float64 { return float64(r.cpu) / float64(time.Millisecond) / ops(r) }), "ms")
	rec.Metrics.Set("stored_bytes_per_user_byte", median(func(r *round) float64 { return float64(r.stored) / float64(r.userBytes) }), "ratio")

	// Detail rows pool the rounds' samples; they carry no bound.
	pooled := &load.Window{}
	var failures []error
	var lost int
	for _, r := range rounds {
		pooled.Samples = append(pooled.Samples, r.win.Samples...)
		pooled.Elapsed += r.win.Elapsed
		pooled.Shed += r.win.Shed
		pooled.BacklogMax = max(pooled.BacklogMax, r.win.BacklogMax)
		failures = append(failures, r.failures...)
		rec.Attempted += r.attempted
		lost += r.lost
	}
	all := pooled.Millis(load.NumClasses)
	// The tail is printed but not gated: on this sandbox its run-to-run
	// spread is too wide for a bound (see README).
	rec.Detail.Set("op_p99_ms", load.Quantile(all, 0.99), "ms")
	rec.Detail.Set("window_s", pooled.Elapsed.Seconds(), "s")
	rec.Detail.Set("ops", float64(len(all)), "count")
	for c := load.Class(0); c < load.NumClasses; c++ {
		ms := pooled.Millis(c)
		if len(ms) == 0 {
			continue
		}
		rec.Detail.Set(c.String()+"_n", float64(len(ms)), "count")
		rec.Detail.Set(c.String()+"_p50_ms", load.Quantile(ms, 0.5), "ms")
		if len(ms) >= 5000 { // a p99 needs samples beyond it
			rec.Detail.Set(c.String()+"_p99_ms", load.Quantile(ms, 0.99), "ms")
		}
	}
	if w.Crash {
		rec.Detail.Set("recovery_s", median(func(r *round) float64 { return r.recovery.Seconds() }), "s")
		rec.Detail.Set("acked_writes_lost", float64(lost), "count")
	}
	rec.Correct = len(failures) == 0
	if w.Rate > 0 {
		late := load.Quantile(pooled.LateMillis(), 0.99)
		rec.Detail.Set("late_start_p99_ms", late, "ms")
		rec.Detail.Set("shed", float64(pooled.Shed), "count")
		rec.Detail.Set("backlog_max", float64(pooled.BacklogMax), "count")
		if late >= maxLateMillis {
			// The generator could not keep its schedule: the latencies say
			// nothing about the system.
			fmt.Printf("INVALID: late_start_p99_ms = %.3f >= %d\n", late, maxLateMillis)
			rec.Correct = false
		}
	}
	rec.Failed = len(failures)

	rec.print(failures)
	if report != "" {
		if err := rec.appendTo(report); err != nil {
			return err
		}
	}
	return load.PrintResult(rec.Correct, rec.Attempted, rec.Failed, rec.Metrics)
}
