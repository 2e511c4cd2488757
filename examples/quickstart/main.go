// Quickstart: the smallest end-to-end DataBlinder program.
//
// It opens a gateway with an embedded (in-process) cloud node, registers a
// two-field schema, inserts a handful of documents, and runs an equality
// search and a homomorphic average — everything the cloud side ever sees
// is ciphertext.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"datablinder"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// An in-process cloud keeps the quickstart self-contained; production
	// deployments list their cmd/cloudserver shards in CloudAddrs instead.
	client, err := datablinder.Open(ctx, datablinder.Options{InProcessCloud: true})
	if err != nil {
		return err
	}
	defer client.Close()

	// Annotate the schema: protection class + required operations per
	// field. The middleware selects tactics adaptively from this alone.
	schema := &datablinder.Schema{
		Name: "vitals",
		Fields: []datablinder.Field{
			datablinder.MustField("patient", datablinder.TypeString, "C2, op [I, EQ]"),
			datablinder.MustField("heart_rate", datablinder.TypeFloat, "C4, op [I, EQ], agg [avg], tactic [DET, Paillier]"),
		},
	}
	if err := client.RegisterSchema(ctx, schema); err != nil {
		return err
	}
	for _, f := range []string{"patient", "heart_rate"} {
		ops, aggs, effective, err := client.FieldPlan("vitals", f)
		if err != nil {
			return err
		}
		fmt.Printf("field %-11s -> ops %v aggs %v (effective protection %s)\n", f, ops, aggs, effective)
	}

	vitals := client.Entities("vitals")
	readings := []struct {
		patient string
		hr      float64
	}{
		{"alice", 62}, {"alice", 71}, {"alice", 64}, {"bob", 80}, {"bob", 85},
	}
	for _, r := range readings {
		id, err := vitals.Insert(ctx, &datablinder.Document{
			Fields: map[string]any{"patient": r.patient, "heart_rate": r.hr},
		})
		if err != nil {
			return err
		}
		fmt.Printf("inserted %s (%s, %.0f bpm)\n", id, r.patient, r.hr)
	}

	// Equality search runs through the Mitra SSE protocol: the cloud sees
	// only pseudo-random tokens, never "alice".
	docs, err := vitals.Search(ctx, datablinder.Eq{Field: "patient", Value: "alice"})
	if err != nil {
		return err
	}
	fmt.Printf("\nalice has %d readings:\n", len(docs))
	for _, d := range docs {
		fmt.Printf("  %s -> %.0f bpm\n", d.ID, d.Fields["heart_rate"])
	}

	// The average is computed homomorphically on the cloud (Paillier): the
	// individual readings are never decrypted server-side.
	avg, err := vitals.Aggregate(ctx, "heart_rate", datablinder.AggAvg,
		datablinder.Eq{Field: "patient", Value: "alice"})
	if err != nil {
		return err
	}
	fmt.Printf("\navg(heart_rate) for alice = %.2f bpm (computed on encrypted data)\n", avg)
	return nil
}
