package load

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// Set records one metric.
func (m Metrics) Set(name string, v float64, unit string) { m[name] = Metric{v, unit} }

// Names returns the metric names, sorted.
func (m Metrics) Names() []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// PrintResult prints the benchmark contract's result object, which must be
// the last line of standard output.
func PrintResult(correct bool, attempted, failed int, m Metrics) error {
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
