// Command tacticsctl inspects DataBlinder's tactic catalog and SPI:
//
//	tacticsctl table2            # regenerate the paper's Table 2 from the registry
//	tacticsctl table1            # regenerate the paper's Table 1 (SPI map)
//	tacticsctl leakage           # per-operation leakage profiles (Fig. 1)
//	tacticsctl plan <schema.json> # show adaptive tactic selection for a schema file
//
// The schema file is the JSON encoding of a datablinder.Schema.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"datablinder/internal/model"
	"datablinder/internal/spi"
	"datablinder/internal/tactics"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tacticsctl table2 | table1 | leakage | plan <schema.json>")
		os.Exit(2)
	}
	var err error
	w := os.Stdout
	switch os.Args[1] {
	case "table2":
		err = printTable2(w)
	case "table1":
		err = printTable1(w)
	case "leakage":
		err = printLeakage(w)
	case "plan":
		if len(os.Args) < 3 {
			err = fmt.Errorf("plan needs a schema file")
		} else {
			err = printPlan(w, os.Args[2])
		}
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		log.Fatalf("tacticsctl: %v", err)
	}
}

// printTable2 regenerates the paper's Table 2 from the live registry.
func printTable2(w io.Writer) error {
	registry, err := tactics.Registry()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2 — implemented cryptographic constructions (from the live registry)\n\n")
	fmt.Fprintf(w, "%-16s %-16s %-8s %-12s %8s %6s  %-26s %-12s\n",
		"Operation", "Scheme", "Class", "Leakage", "Gateway", "Cloud", "Challenge", "Impl")
	// Order rows the way the paper does: by operation family.
	order := []string{"Equality Search", "Boolean Search", "Range Query", "Sum / Average"}
	descriptors := registry.Descriptors()
	sort.SliceStable(descriptors, func(i, j int) bool {
		return opRank(order, descriptors[i].Operation) < opRank(order, descriptors[j].Operation)
	})
	for _, d := range descriptors {
		class, leak := "-", "-"
		if d.Class != 0 {
			class = d.Class.String()
		}
		if d.Leakage != 0 {
			leak = d.Leakage.String()
		}
		impl := "implemented"
		if d.Origin == spi.OriginAdapted {
			impl = "adapted"
		}
		fmt.Fprintf(w, "%-16s %-16s %-8s %-12s %8d %6d  %-26s %-12s\n",
			d.Operation, d.Name, class, leak,
			len(d.GatewayInterfaces), len(d.CloudInterfaces), d.Challenge, impl)
	}
	return nil
}

func opRank(order []string, op string) int {
	for i, o := range order {
		if o == op {
			return i
		}
	}
	return len(order)
}

// printTable1 regenerates the paper's Table 1: the SPI interfaces per
// high-level operation.
func printTable1(w io.Writer) error {
	m := spi.SPIMap()
	rows := []string{"Insert", "Update", "Delete", "Read", "Equality Search", "Boolean Search", "Aggregate"}
	fmt.Fprintf(w, "Table 1 — Service Provider Interface (SPI)\n\n")
	fmt.Fprintf(w, "%-16s  %-44s  %s\n", "Operation", "Gateway Interfaces", "Cloud Interfaces")
	for _, r := range rows {
		e := m[r]
		fmt.Fprintf(w, "%-16s  %-44s  %s\n", r, strings.Join(e.Gateway, ", "), strings.Join(e.Cloud, ", "))
	}
	return nil
}

// printLeakage reifies the paper's Fig. 1 tactic model: each tactic's
// per-operation leakage profile and performance metrics.
func printLeakage(w io.Writer) error {
	registry, err := tactics.Registry()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Per-operation leakage profiles (paper Fig. 1 reification)\n")
	for _, d := range registry.Descriptors() {
		fmt.Fprintf(w, "\n%s", d.Name)
		if d.Leakage != 0 {
			fmt.Fprintf(w, "  [overall: %s, class %s]", d.Leakage, d.Class)
		} else {
			fmt.Fprintf(w, "  [aggregate-only: never searched by value]")
		}
		fmt.Fprintln(w)
		for _, ol := range d.OpLeakage {
			fmt.Fprintf(w, "  %-6s %-12s %s\n", ol.Op.Name(), ol.Leakage.String(), ol.Note)
		}
		fmt.Fprintf(w, "  perf: %s; %d round trip(s); client storage: %s; server storage ~%.1fx\n",
			d.Perf.Complexity, d.Perf.RoundTrips, d.Perf.ClientStorage, d.Perf.ServerStorageFactor)
	}
	return nil
}

// printPlan loads a schema file, validates it, and shows per-field
// adaptive tactic selection with effective protection classes.
func printPlan(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var s model.Schema
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("decoding schema: %w", err)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	registry, err := tactics.Registry()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "schema %q — adaptive tactic selection\n\n", s.Name)
	fmt.Fprintf(w, "%-14s %-10s %-28s %-24s %s\n", "field", "requested", "annotation", "tactics", "effective")
	for _, f := range s.SensitiveFields() {
		plan, err := registry.Select(f)
		if err != nil {
			return fmt.Errorf("field %q: %w", f.Name, err)
		}
		fmt.Fprintf(w, "%-14s %-10s %-28s %-24s %s\n",
			f.Name, f.Annotation.Class, f.Annotation.String(),
			strings.Join(plan.Tactics, ", "), registry.EffectiveClass(plan))
	}
	return nil
}
