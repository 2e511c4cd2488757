package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"datablinder/benchmark/load"
)

// record is one run as -report stores it: the gated metrics plus the
// per-class and validity detail that is printed but carries no bound.
type record struct {
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Metrics   load.Metrics `json:"metrics"`
	Detail    load.Metrics `json:"detail"`
}

func (r *record) print(failures []error) {
	fmt.Printf("workload %s seed %d: attempted_ops %d failed_ops %d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	for i, err := range failures {
		if i == maxListed {
			fmt.Printf("  ... and %d more failures\n", len(failures)-maxListed)
			break
		}
		fmt.Printf("  FAILED %v\n", err)
	}
	for _, k := range r.Metrics.Names() {
		fmt.Printf("  %-28s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	for _, k := range r.Detail.Names() {
		fmt.Printf("  (%s)%*s %14.4f %s\n", k, 26-len(k), "", r.Detail[k].Value, r.Detail[k].Unit)
	}
}

func (r *record) appendTo(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// row is one (workload, metric) pair of a baseline: the median and quartiles
// over the runs summarized.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Gated    bool    `json:"gated"` // an end-to-end metric with a bound in BENCHMARK.json
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
}

type baseline struct {
	Stamp     map[string]any `json:"stamp"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Rows      []row          `json:"rows"`
}

// quartiles matches Python's statistics.quantiles(values, n=4), which is how
// the benchmark's driver measures spread.
func quartiles(v []float64) (q1, med, q3 float64) {
	sort.Float64s(v)
	m := len(v)
	if m == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func summarizeFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[key]string{}
	gated := map[key]bool{}
	var order []key
	b := baseline{Stamp: stamp()}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		b.Attempted += r.Attempted
		b.Failed += r.Failed
		for pass, set := range []load.Metrics{r.Metrics, r.Detail} {
			for _, name := range set.Names() {
				k := key{r.Workload, name}
				if _, seen := values[k]; !seen {
					order = append(order, k)
				}
				values[k] = append(values[k], set[name].Value)
				units[k], gated[k] = set[name].Unit, pass == 0
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(order) == 0 {
		return fmt.Errorf("%s holds no records", path)
	}
	for _, k := range order {
		q1, med, q3 := quartiles(values[k])
		b.Rows = append(b.Rows, row{k.workload, k.metric, units[k], gated[k], len(values[k]), q1, med, q3})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(b)
}

// stamp records where a baseline was measured. The commit comes from the
// environment (run.sh sets it) because the benchmark's checkout need not be
// a git repository.
func stamp() map[string]any {
	fs := "unknown"
	if wd, err := os.Getwd(); err == nil {
		fs = fsType(wd)
	}
	return map[string]any{
		"git":        os.Getenv("DBBENCH_GIT"),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"filesystem": fs,
		"utc":        time.Now().UTC().Format(time.RFC3339),
	}
}

// fsType is the filesystem type of the longest mount point containing dir.
func fsType(dir string) string {
	raw, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || mp == "/" || strings.HasPrefix(dir, mp+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

func readBaseline(path string) (*baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// compareFiles applies BENCHMARK.json's bounds to every gated (metric,
// workload) row of two baselines. A row whose run-to-run spread exceeds its
// bound is unresolved, not unchanged.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two baseline files")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	old, err := readBaseline(args[0])
	if err != nil {
		return err
	}
	cur, err := readBaseline(args[1])
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	olds := map[key]row{}
	for _, r := range old.Rows {
		olds[key{r.Workload, r.Metric}] = r
	}
	gatedWorkload := map[string]bool{}
	for _, w := range decl.Workloads {
		gatedWorkload[w.Name] = true
	}
	regressed, unresolved := 0, 0
	fmt.Printf("%-15s %-27s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "worse", "spread", "bound", "verdict")
	for _, n := range cur.Rows {
		o, ok := olds[key{n.Workload, n.Metric}]
		if !ok || !n.Gated {
			continue
		}
		for _, m := range decl.EndToEnd {
			if m.Name != n.Metric {
				continue
			}
			worse := (n.Median - o.Median) / o.Median
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max((o.Q3-o.Q1)/o.Median, (n.Q3-n.Q1)/n.Median)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound && !gatedWorkload[n.Workload]:
				verdict = "worse (workload not gated)"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-15s %-27s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				n.Workload, n.Metric, o.Median, n.Median, 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	if old.Failed+cur.Failed > 0 {
		return fmt.Errorf("failed operations: %d in %s, %d in %s", old.Failed, args[0], cur.Failed, args[1])
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed beyond their bound (%d unresolved)", regressed, unresolved)
	}
	fmt.Printf("no row regressed beyond its bound; %d unresolved\n", unresolved)
	return nil
}
