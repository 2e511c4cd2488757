// Package benchmark holds only this smoke test: every workload at about 2 %
// scale through the real cloudserver child, checking that nothing fails and
// that the drivers print exactly the metrics BENCHMARK.json declares. Run it
// with `go test` in this directory; -short skips it.
package benchmark

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type declared struct {
	Name, Unit string
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func build(t *testing.T, dir, out, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), out)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, msg)
	}
	return bin
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns cloudserver children")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	cloudserver := build(t, "..", "cloudserver", "./cmd/cloudserver")
	tools := map[string]string{
		"dbbench":  build(t, ".", "dbbench", "./cmd/dbbench"),
		"dblayers": build(t, ".", "dblayers", "./cmd/dblayers"),
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	run := func(t *testing.T, tool, workload string, want []declared) {
		seconds := "0.6"
		if workload == "open_loop_mix" {
			seconds = "3" // at 2 % of the rate, long enough for a few arrivals per window
		}
		cmd := exec.Command(tools[tool], "-cloudserver", cloudserver, "-workdir", filepath.Join(t.TempDir(), "work"),
			"--workload", workload, "--seed", "7", "--seconds", seconds, "-scale", "0.02")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s%s", tool, workload, err, out, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s %s: last line is not the result object: %v", tool, workload, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s %s: correct=%v attempted=%d failed=%d\n%s", tool, workload, res.Correct, res.Attempted, res.Failed, out)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s %s: %d metrics printed, BENCHMARK.json declares %d", tool, workload, len(res.Metrics), len(want))
		}
		for _, d := range want {
			got, ok := res.Metrics[d.Name]
			switch {
			case !name.MatchString(d.Name):
				t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
			case !ok:
				t.Errorf("%s %s: metric %s missing", tool, workload, d.Name)
			case got.Unit != d.Unit:
				t.Errorf("%s %s: metric %s has unit %q, BENCHMARK.json says %q", tool, workload, d.Name, got.Unit, d.Unit)
			}
		}
	}
	names := []string{"ingest_durable", "open_loop_mix"} // measured, not gated by BENCHMARK.json
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range names {
		w := w
		t.Run(w, func(t *testing.T) { run(t, "dbbench", w, decl.EndToEnd) })
	}
	// One traced run is enough to pin the per-layer names.
	t.Run("layers", func(t *testing.T) { run(t, "dblayers", "rich_query", decl.PerLayer) })
}
