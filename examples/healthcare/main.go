// Healthcare: the paper's §5.1 validation case — FHIR-compliant medical
// Observation documents with the exact per-field annotations from the
// paper, demonstrating that adaptive tactic selection reproduces the
// paper's selection table and that boolean, range, and aggregate queries
// all run over encrypted data.
//
// Run with:
//
//	go run ./examples/healthcare
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"datablinder"
)

// observationSchema carries the §5.1 annotations:
//
//	status     C3, op [I, EQ, BL]
//	code       C3, op [I, EQ, BL]
//	subject    C2, op [I, EQ]
//	effective  C5, op [I, EQ, BL, RG]
//	issued     C5, op [I, EQ, BL, RG]
//	performer  C1, op [I]
//	value      C3, op [I, EQ, BL], agg [avg]
func observationSchema() *datablinder.Schema {
	return &datablinder.Schema{
		Name: "observation",
		Fields: []datablinder.Field{
			datablinder.PlainField("identifier", datablinder.TypeString),
			datablinder.MustField("status", datablinder.TypeString, "C3, op [I, EQ, BL]"),
			datablinder.MustField("code", datablinder.TypeString, "C3, op [I, EQ, BL]"),
			datablinder.MustField("subject", datablinder.TypeString, "C2, op [I, EQ]"),
			datablinder.MustField("effective", datablinder.TypeInt, "C5, op [I, EQ, BL, RG], tactic [DET, OPE, BIEX-2Lev]"),
			datablinder.MustField("issued", datablinder.TypeInt, "C5, op [I, EQ, BL, RG], tactic [DET, OPE, BIEX-2Lev]"),
			datablinder.MustField("performer", datablinder.TypeString, "C1, op [I]"),
			datablinder.MustField("value", datablinder.TypeFloat, "C3, op [I, EQ, BL], agg [avg]"),
			datablinder.MustField("interpretation", datablinder.TypeString, "C3, op [I, EQ, BL]"),
		},
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	client, err := datablinder.Open(ctx, datablinder.Options{InProcessCloud: true})
	if err != nil {
		return err
	}
	defer client.Close()

	schema := observationSchema()
	if err := client.RegisterSchema(ctx, schema); err != nil {
		return err
	}

	// Show the adaptive selection — this reproduces the paper's §5.1
	// tactic-selection table.
	fmt.Println("adaptive tactic selection (paper §5.1 table):")
	for _, f := range schema.SensitiveFields() {
		ops, aggs, effective, err := client.FieldPlan("observation", f.Name)
		if err != nil {
			return err
		}
		tactics := map[string]bool{}
		for _, t := range ops {
			tactics[t] = true
		}
		for _, t := range aggs {
			tactics[t] = true
		}
		names := make([]string, 0, len(tactics))
		for t := range tactics {
			names = append(names, t)
		}
		sort.Strings(names)
		fmt.Printf("  %-14s %-26s -> %-22s (effective %s)\n",
			f.Name, f.Annotation.String(), strings.Join(names, ", "), effective)
	}

	obs := client.Entities("observation")

	// The paper's example document f001: a glucose blood-test observation.
	f001 := &datablinder.Document{ID: "f001", Fields: map[string]any{
		"identifier": "6323", "status": "final", "code": "glucose",
		"subject": "John Doe", "effective": int64(1359966610),
		"issued": int64(1362407410), "performer": "John Smith",
		"value": 6.3, "interpretation": "High",
	}}
	if _, err := obs.Insert(ctx, f001); err != nil {
		return err
	}
	more := []*datablinder.Document{
		{ID: "f002", Fields: map[string]any{
			"status": "final", "code": "glucose", "subject": "John Doe",
			"effective": int64(1360570000), "issued": int64(1360590000),
			"performer": "John Smith", "value": 5.4, "interpretation": "normal"}},
		{ID: "f003", Fields: map[string]any{
			"status": "final", "code": "heart-rate", "subject": "John Doe",
			"effective": int64(1361170000), "issued": int64(1361190000),
			"performer": "Mary Major", "value": 74.0, "interpretation": "normal"}},
		{ID: "f004", Fields: map[string]any{
			"status": "preliminary", "code": "glucose", "subject": "Carol Cole",
			"effective": int64(1361770000), "issued": int64(1361790000),
			"performer": "Mary Major", "value": 11.7, "interpretation": "critical"}},
	}
	for _, d := range more {
		if _, err := obs.Insert(ctx, d); err != nil {
			return err
		}
	}

	// Boolean search (BIEX-2Lev): "finding the patient with a particular
	// condition" — final AND glucose AND NOT normal.
	fmt.Println("\nboolean query: status=final AND code=glucose AND NOT interpretation=normal")
	ids, err := obs.SearchIDs(ctx, datablinder.And{Preds: []datablinder.Predicate{
		datablinder.Eq{Field: "status", Value: "final"},
		datablinder.Eq{Field: "code", Value: "glucose"},
		datablinder.Not{Pred: datablinder.Eq{Field: "interpretation", Value: "normal"}},
	}})
	if err != nil {
		return err
	}
	fmt.Printf("  -> %v\n", ids)

	// Range query (OPE): observations in a date window.
	fmt.Println("\nrange query: effective in [1360000000, 1361500000]")
	ids, err = obs.SearchIDs(ctx, datablinder.Between("effective", 1360000000, 1361500000))
	if err != nil {
		return err
	}
	fmt.Printf("  -> %v\n", ids)

	// Aggregated search (Paillier): average glucose for John Doe — the
	// paper's motivating "calculating the average ..." query.
	avg, err := obs.Aggregate(ctx, "value", datablinder.AggAvg,
		datablinder.And{Preds: []datablinder.Predicate{
			datablinder.Eq{Field: "subject", Value: "John Doe"},
			datablinder.Eq{Field: "code", Value: "glucose"},
		}})
	if err != nil {
		return err
	}
	fmt.Printf("\navg glucose for John Doe = %.2f mmol/L (homomorphic, cloud-side)\n", avg)

	// Updates re-index: f004 gets finalized.
	f004, err := obs.Get(ctx, "f004")
	if err != nil {
		return err
	}
	f004.Fields["status"] = "final"
	if err := obs.Update(ctx, f004); err != nil {
		return err
	}
	ids, err = obs.SearchIDs(ctx, datablinder.Eq{Field: "status", Value: "preliminary"})
	if err != nil {
		return err
	}
	fmt.Printf("\nafter finalizing f004, preliminary observations: %v\n", ids)
	return nil
}
