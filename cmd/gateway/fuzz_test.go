package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"datablinder"
)

// The corpus FuzzGatewaySearch searches. No string value parses as a
// number: the CLI types a value by its text (parseEq), so a string field
// holding "7" or "Inf" is out of its reach by design, and the oracle below
// follows the CLI's typing rule.
var (
	fuzzSubjects = []string{"alice", "bob", "carol", "a=b", "x y", "ünï"}
	fuzzNotes    = []string{"", "n=1=2", "note", "-", "e"}
	fuzzTaken    = []int64{0, -1, 7, 100, 1 << 40, math.MaxInt64, math.MinInt64}
	fuzzValues   = []float64{0, math.Copysign(0, -1), 0.1, -2.5, 6, 1e300, 5e-324}
)

func fuzzDoc(i int) *datablinder.Document {
	return &datablinder.Document{ID: fmt.Sprintf("d%02d", i), Fields: map[string]any{
		"subject": fuzzSubjects[i%len(fuzzSubjects)],
		"note":    fuzzNotes[i%len(fuzzNotes)],
		"taken":   fuzzTaken[i%len(fuzzTaken)],
		"v":       fuzzValues[i%len(fuzzValues)],
	}}
}

// plainEq is the plaintext filter: whether a stored value equals the query
// value the CLI parsed. Strings compare as strings, an int field exactly,
// a float field as float64.
func plainEq(stored, q any) bool {
	switch d := stored.(type) {
	case string:
		s, ok := q.(string)
		return ok && s == d
	case int64:
		switch x := q.(type) {
		case int64:
			return x == d
		case float64:
			return x == math.Trunc(x) && x >= -(1<<63) && x < 1<<63 && int64(x) == d
		}
	case float64:
		switch x := q.(type) {
		case int64:
			return float64(x) == d
		case float64:
			return x == d
		}
	}
	return false
}

// dispatchCaptured runs dispatch with standard output going to out, and
// returns what it printed.
func dispatchCaptured(ctx context.Context, client *datablinder.Client, out *os.File, args []string) (string, error) {
	if err := out.Truncate(0); err != nil {
		return "", err
	}
	if _, err := out.Seek(0, 0); err != nil {
		return "", err
	}
	stdout := os.Stdout
	os.Stdout = out
	err := dispatch(ctx, client, args)
	os.Stdout = stdout
	printed, rerr := os.ReadFile(out.Name())
	if rerr != nil {
		return "", rerr
	}
	return string(printed), err
}

// FuzzGatewaySearch drives the CLI's `search <schema> <field>=<value>` and
// `range <schema> <field> <lo> <hi>` through dispatch against an in-process
// cloud holding a 20-document corpus. Neither may panic, and the documents a
// search prints must be exactly those the plaintext filter picks; a search
// may fail only where that filter picks nothing.
func FuzzGatewaySearch(f *testing.F) {
	ctx := context.Background()
	client, err := datablinder.Open(ctx, datablinder.Options{InProcessCloud: true})
	if err != nil {
		f.Fatal(err)
	}
	defer client.Close()
	err = client.RegisterSchema(ctx, &datablinder.Schema{Name: "obs", Fields: []datablinder.Field{
		datablinder.MustField("subject", datablinder.TypeString, "C5, op [I, EQ], tactic [DET]"),
		datablinder.MustField("note", datablinder.TypeString, "C1, op [I, EQ], tactic [RND]"),
		datablinder.MustField("taken", datablinder.TypeInt, "C5, op [I, EQ, RG], tactic [DET, OPE]"),
		datablinder.MustField("v", datablinder.TypeFloat, "C5, op [I, EQ, RG], tactic [DET, OPE]"),
	}})
	if err != nil {
		f.Fatal(err)
	}
	const docs = 20
	for i := 0; i < docs; i++ {
		if _, err := client.Entities("obs").Insert(ctx, fuzzDoc(i)); err != nil {
			f.Fatal(err)
		}
	}
	out, err := os.Create(filepath.Join(f.TempDir(), "stdout"))
	if err != nil {
		f.Fatal(err)
	}
	defer out.Close()

	for _, seed := range [][4]string{
		{"subject=alice", "taken", "0", "100"},
		{"subject=a=b", "v", "-2.5", "6"},
		{"note=", "v", "NaN", "Inf"},
		{"note=n=1=2", "taken", "-Inf", "+Inf"},
		{"taken=9223372036854775807", "taken", "-9223372036854775808", "9223372036854775807"},
		{"taken=9223372036854775808", "taken", "9223372036854775808", "1e400"},
		{"taken=-9.223372036854775808e18", "v", "-0", "0"},
		{"v=-0", "v", "-0.0", "5e-324"},
		{"v=-0.0", "v", "1e300", "-1e300"},
		{"v=NaN", "v", "nan", "-inf"},
		{"v=+Inf", "taken", "1.5", "x"},
		{"=alice", "", "0", "1"},
		{"subject", "nosuch", "0", "1"},
		{"taken=1e2", "taken", "1e2", "1e1"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}

	f.Fuzz(func(t *testing.T, eq, field, lo, hi string) {
		dispatchCaptured(ctx, client, out, []string{"range", "obs", field, lo, hi}) //nolint:errcheck // it must not panic; failing is fine

		printed, err := dispatchCaptured(ctx, client, out, []string{"search", "obs", eq})
		q, perr := parseEq(eq)
		if perr != nil {
			if err == nil {
				t.Fatalf("search %q succeeded past a parse error: %v", eq, perr)
			}
			return
		}
		var want []string
		for i := 0; i < docs; i++ {
			d := fuzzDoc(i)
			if stored, ok := d.Fields[q.Field]; ok && plainEq(stored, q.Value) {
				want = append(want, d.ID)
			}
		}
		if err != nil {
			if len(want) > 0 {
				t.Fatalf("search %q failed (%v), but %v match it", eq, err, want)
			}
			return
		}
		_, body, _ := strings.Cut(printed, "\n")
		var found []datablinder.Document
		if err := json.Unmarshal([]byte(body), &found); err != nil {
			t.Fatalf("search %q printed %q: %v", eq, printed, err)
		}
		var got []string
		for _, d := range found {
			got = append(got, d.ID)
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("search %q (%#v) = %v, plaintext filter = %v", eq, q.Value, got, want)
		}
	})
}
