package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins the paper's Table 1, Table 2, the leakage profiles and the
// healthcare schema's plan byte for byte: testdata/*.golden holds the output
// of the catalog these tables were first reproduced from, so a refactor of
// the tactics or the SPI must leave every line as it is.
func TestGolden(t *testing.T) {
	cases := map[string]func(io.Writer) error{
		"table1":  printTable1,
		"table2":  printTable2,
		"leakage": printLeakage,
		"plan": func(w io.Writer) error {
			return printPlan(w, filepath.Join("..", "..", "examples", "healthcare", "observation.schema.json"))
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			if err := run(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("tacticsctl %s differs from testdata/%s.golden:\n--- got\n%s\n--- want\n%s", name, name, got.Bytes(), want)
			}
		})
	}
}
