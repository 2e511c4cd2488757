package model

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLeakageOrdering(t *testing.T) {
	if !(LeakStructure < LeakIdentifiers && LeakIdentifiers < LeakPredicates &&
		LeakPredicates < LeakEqualities && LeakEqualities < LeakOrder) {
		t.Fatal("leakage levels are not strictly ordered")
	}
}

func TestLeakageString(t *testing.T) {
	tests := []struct {
		l    Leakage
		want string
	}{
		{LeakStructure, "Structure"},
		{LeakIdentifiers, "Identifiers"},
		{LeakPredicates, "Predicates"},
		{LeakEqualities, "Equalities"},
		{LeakOrder, "Order"},
		{Leakage(99), "Leakage(99)"},
	}
	for _, tt := range tests {
		if got := tt.l.String(); got != tt.want {
			t.Errorf("Leakage(%d).String() = %q, want %q", int(tt.l), got, tt.want)
		}
	}
}

func TestClassTolerates(t *testing.T) {
	// C1 tolerates only Structure; C5 tolerates everything.
	tests := []struct {
		c    Class
		l    Leakage
		want bool
	}{
		{Class1, LeakStructure, true},
		{Class1, LeakIdentifiers, false},
		{Class2, LeakIdentifiers, true},
		{Class2, LeakPredicates, false},
		{Class3, LeakPredicates, true},
		{Class3, LeakEqualities, false},
		{Class4, LeakEqualities, true},
		{Class4, LeakOrder, false},
		{Class5, LeakOrder, true},
		{Class5, LeakStructure, true},
	}
	for _, tt := range tests {
		if got := tt.c.Tolerates(tt.l); got != tt.want {
			t.Errorf("%s.Tolerates(%s) = %v, want %v", tt.c, tt.l, got, tt.want)
		}
	}
}

func TestClassToleratesMonotone(t *testing.T) {
	// Property: if class c tolerates leakage l, every weaker class (c+1..C5)
	// also tolerates l.
	f := func(ci, li uint8) bool {
		c := Class(ci%5) + 1
		l := Leakage(li%5) + 1
		if !c.Tolerates(l) {
			return true
		}
		for weaker := c; weaker <= Class5; weaker++ {
			if !weaker.Tolerates(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseClass(t *testing.T) {
	tests := []struct {
		in      string
		want    Class
		wantErr bool
	}{
		{"C1", Class1, false},
		{"c5", Class5, false},
		{" C3 ", Class3, false},
		{"C0", 0, true},
		{"C6", 0, true},
		{"X3", 0, true},
		{"", 0, true},
		{"C33", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseClass(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseClass(%q) err=%v, wantErr=%v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseClass(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseOpAndAgg(t *testing.T) {
	if op, err := ParseOp(" eq "); err != nil || op != OpEquality {
		t.Fatalf("ParseOp(eq) = %v, %v", op, err)
	}
	if _, err := ParseOp("ZZ"); err == nil {
		t.Fatal("ParseOp accepted unknown code")
	}
	if ag, err := ParseAgg("AVG"); err != nil || ag != AggAvg {
		t.Fatalf("ParseAgg(AVG) = %v, %v", ag, err)
	}
	if _, err := ParseAgg("median"); err == nil {
		t.Fatal("ParseAgg accepted unknown aggregate")
	}
}

func TestParseAnnotationPaperExamples(t *testing.T) {
	// The exact annotations from §5.1 of the paper.
	tests := []struct {
		in        string
		wantClass Class
		wantOps   []Op
		wantAggs  []Agg
	}{
		{"C3, op [I, EQ, BL]", Class3, []Op{OpInsert, OpEquality, OpBoolean}, nil},
		{"C2, op [I, EQ]", Class2, []Op{OpInsert, OpEquality}, nil},
		{"C5, op [I, EQ, BL, RG]", Class5, []Op{OpInsert, OpEquality, OpBoolean, OpRange}, nil},
		{"C1, op [I]", Class1, []Op{OpInsert}, nil},
		{"C3, op [I, EQ, BL], agg [avg]", Class3, []Op{OpInsert, OpEquality, OpBoolean}, []Agg{AggAvg}},
	}
	for _, tt := range tests {
		ann, err := ParseAnnotation(tt.in)
		if err != nil {
			t.Errorf("ParseAnnotation(%q): %v", tt.in, err)
			continue
		}
		if ann.Class != tt.wantClass {
			t.Errorf("%q: class = %v, want %v", tt.in, ann.Class, tt.wantClass)
		}
		if len(ann.Ops) != len(tt.wantOps) {
			t.Errorf("%q: ops = %v, want %v", tt.in, ann.Ops, tt.wantOps)
			continue
		}
		for i := range tt.wantOps {
			if ann.Ops[i] != tt.wantOps[i] {
				t.Errorf("%q: op[%d] = %v, want %v", tt.in, i, ann.Ops[i], tt.wantOps[i])
			}
		}
		if len(ann.Aggs) != len(tt.wantAggs) {
			t.Errorf("%q: aggs = %v, want %v", tt.in, ann.Aggs, tt.wantAggs)
		}
	}
}

func TestParseAnnotationTacticPins(t *testing.T) {
	ann, err := ParseAnnotation("C5, op [I, EQ, RG], tactic [DET, OPE]")
	if err != nil {
		t.Fatalf("ParseAnnotation: %v", err)
	}
	if len(ann.Tactics) != 2 || ann.Tactics[0] != "DET" || ann.Tactics[1] != "OPE" {
		t.Fatalf("tactic pins = %v", ann.Tactics)
	}
}

func TestParseAnnotationErrors(t *testing.T) {
	bad := []string{
		"",
		"C3",                     // no ops
		"C9, op [I]",             // bad class
		"C3, op []",              // empty op list
		"C3, op [I, I]",          // duplicate op
		"C3, op [XX]",            // unknown op
		"C3, op [I], agg [mode]", // unknown agg
		"C3, weird [I]",          // unknown clause
		"C3, op I",               // missing brackets
	}
	for _, in := range bad {
		if _, err := ParseAnnotation(in); err == nil {
			t.Errorf("ParseAnnotation(%q) succeeded, want error", in)
		}
	}
}

func TestAnnotationRoundTrip(t *testing.T) {
	in := "C3, op [I, EQ, BL], agg [avg]"
	ann, err := ParseAnnotation(in)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out := ann.String()
	ann2, err := ParseAnnotation(out)
	if err != nil {
		t.Fatalf("re-parse %q: %v", out, err)
	}
	if ann2.String() != out {
		t.Fatalf("annotation round trip unstable: %q -> %q", out, ann2.String())
	}
}

func observationSchema() *Schema {
	return &Schema{
		Name: "observation",
		Fields: []Field{
			{Name: "id", Type: TypeString},
			{Name: "status", Type: TypeString, Sensitive: true,
				Annotation: Annotation{Class: Class3, Ops: []Op{OpInsert, OpEquality, OpBoolean}}},
			{Name: "effective", Type: TypeInt, Sensitive: true,
				Annotation: Annotation{Class: Class5, Ops: []Op{OpInsert, OpEquality, OpBoolean, OpRange}}},
			{Name: "value", Type: TypeFloat, Sensitive: true,
				Annotation: Annotation{Class: Class3, Ops: []Op{OpInsert, OpEquality, OpBoolean}, Aggs: []Agg{AggAvg}}},
		},
	}
}

func TestSchemaValidate(t *testing.T) {
	s := observationSchema()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestSchemaValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Schema)
		substr string
	}{
		{"empty name", func(s *Schema) { s.Name = "" }, "name required"},
		{"no fields", func(s *Schema) { s.Fields = nil }, "no fields"},
		{"dup field", func(s *Schema) { s.Fields = append(s.Fields, s.Fields[1]) }, "duplicates"},
		{"bad type", func(s *Schema) { s.Fields[0].Type = "blob" }, "invalid type"},
		{"range on string", func(s *Schema) {
			s.Fields[1].Annotation.Ops = append(s.Fields[1].Annotation.Ops, OpRange)
		}, "range queries on non-numeric"},
		{"avg on string", func(s *Schema) {
			s.Fields[1].Annotation.Aggs = []Agg{AggAvg}
		}, "aggregate"},
		{"unnamed field", func(s *Schema) { s.Fields[0].Name = "" }, "no name"},
		{"bad class", func(s *Schema) { s.Fields[1].Annotation.Class = 7 }, "invalid class"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := observationSchema()
			tt.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid schema")
			}
			if !strings.Contains(err.Error(), tt.substr) {
				t.Fatalf("error %q does not contain %q", err, tt.substr)
			}
		})
	}
}

func TestCountAggregateOnString(t *testing.T) {
	// count is the one aggregate that works on non-numeric fields.
	s := observationSchema()
	s.Fields[1].Annotation.Aggs = []Agg{AggCount}
	if err := s.Validate(); err != nil {
		t.Fatalf("count on string field rejected: %v", err)
	}
}

func TestSchemaFieldLookup(t *testing.T) {
	s := observationSchema()
	if f, ok := s.Field("status"); !ok || f.Name != "status" {
		t.Fatal("Field lookup failed")
	}
	if _, ok := s.Field("missing"); ok {
		t.Fatal("Field lookup found nonexistent field")
	}
	sf := s.SensitiveFields()
	if len(sf) != 3 {
		t.Fatalf("SensitiveFields = %d, want 3", len(sf))
	}
}

func TestDocumentValidation(t *testing.T) {
	s := observationSchema()
	doc := &Document{ID: "f001", Fields: map[string]any{
		"status":    "final",
		"effective": int64(1359966610),
		"value":     6.3,
	}}
	if err := doc.ValidateAgainst(s); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}

	bad := []*Document{
		{ID: "", Fields: map[string]any{"status": "final"}},
		{ID: "x", Fields: map[string]any{"unknown": "v"}},
		{ID: "x", Fields: map[string]any{"status": 42}},
		{ID: "x", Fields: map[string]any{"effective": "soon"}},
		{ID: "x", Fields: map[string]any{"value": "high"}},
	}
	for i, d := range bad {
		if err := d.ValidateAgainst(s); err == nil {
			t.Errorf("bad document %d accepted", i)
		}
	}
}

func TestDocumentIntAcceptsGoInt(t *testing.T) {
	s := observationSchema()
	doc := &Document{ID: "f002", Fields: map[string]any{"effective": 123}}
	if err := doc.ValidateAgainst(s); err != nil {
		t.Fatalf("int value rejected for int field: %v", err)
	}
	// Float fields accept ints too (common after JSON decoding fix-ups).
	doc = &Document{ID: "f003", Fields: map[string]any{"value": 6}}
	if err := doc.ValidateAgainst(s); err != nil {
		t.Fatalf("int value rejected for float field: %v", err)
	}
}

func TestIntFieldsAcceptIntegralJSONFloats(t *testing.T) {
	// JSON decoding produces float64 for every number; integral floats
	// must be accepted (and normalized) for int fields, non-integral ones
	// rejected.
	s := observationSchema()
	doc := &Document{ID: "j1", Fields: map[string]any{"effective": 1359966610.0}}
	if err := doc.ValidateAgainst(s); err != nil {
		t.Fatalf("integral float rejected for int field: %v", err)
	}
	doc = &Document{ID: "j2", Fields: map[string]any{"effective": 135.5}}
	if err := doc.ValidateAgainst(s); err == nil {
		t.Fatal("non-integral float accepted for int field")
	}
	i, _, err := NormalizeNumeric(42.0, TypeInt)
	if err != nil || i != 42 {
		t.Fatalf("NormalizeNumeric(42.0, int) = %d, %v", i, err)
	}
	if _, _, err := NormalizeNumeric(42.5, TypeInt); err == nil {
		t.Fatal("NormalizeNumeric accepted non-integral float for int")
	}
}

func TestDocumentUnmarshalLosslessInts(t *testing.T) {
	// 2^53+1 is the first integer float64 cannot represent; the default
	// map[string]any decode silently returns 2^53 for it.
	raw := []byte(`{"id":"big","fields":{
		"issued": 9007199254740993,
		"effective": -9007199254740995,
		"value": 6.3,
		"exp": 1e3,
		"status": "final",
		"nested": {"n": 9007199254740993, "list": [9007199254740993, 0.5]}
	}}`)
	var d Document
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if d.ID != "big" {
		t.Fatalf("ID = %q", d.ID)
	}
	if d.Fields["issued"] != int64(9007199254740993) {
		t.Errorf("issued = %v (%T)", d.Fields["issued"], d.Fields["issued"])
	}
	if d.Fields["effective"] != int64(-9007199254740995) {
		t.Errorf("effective = %v (%T)", d.Fields["effective"], d.Fields["effective"])
	}
	if d.Fields["value"] != 6.3 {
		t.Errorf("value = %v (%T)", d.Fields["value"], d.Fields["value"])
	}
	// Exponent notation is a float literal even when integral.
	if d.Fields["exp"] != 1000.0 {
		t.Errorf("exp = %v (%T)", d.Fields["exp"], d.Fields["exp"])
	}
	if d.Fields["status"] != "final" {
		t.Errorf("status = %v", d.Fields["status"])
	}
	nested := d.Fields["nested"].(map[string]any)
	if nested["n"] != int64(9007199254740993) {
		t.Errorf("nested.n = %v (%T)", nested["n"], nested["n"])
	}
	list := nested["list"].([]any)
	if list[0] != int64(9007199254740993) || list[1] != 0.5 {
		t.Errorf("nested.list = %v", list)
	}
	// Integers beyond int64 fall back to float64 rather than erroring.
	var huge Document
	if err := json.Unmarshal([]byte(`{"id":"h","fields":{"v": 99999999999999999999}}`), &huge); err != nil {
		t.Fatalf("Unmarshal(>int64): %v", err)
	}
	if _, ok := huge.Fields["v"].(float64); !ok {
		t.Errorf("beyond-int64 literal = %T, want float64", huge.Fields["v"])
	}
}

func TestNormalizeNumeric(t *testing.T) {
	if i, _, err := NormalizeNumeric(42, TypeInt); err != nil || i != 42 {
		t.Fatalf("NormalizeNumeric(int) = %d, %v", i, err)
	}
	if i, _, err := NormalizeNumeric(int64(7), TypeInt); err != nil || i != 7 {
		t.Fatalf("NormalizeNumeric(int64) = %d, %v", i, err)
	}
	if _, f, err := NormalizeNumeric(6.3, TypeFloat); err != nil || f != 6.3 {
		t.Fatalf("NormalizeNumeric(float64) = %g, %v", f, err)
	}
	if _, f, err := NormalizeNumeric(6, TypeFloat); err != nil || f != 6.0 {
		t.Fatalf("NormalizeNumeric(int->float) = %g, %v", f, err)
	}
	if i, _, err := NormalizeNumeric(-9.223372036854775808e18, TypeInt); err != nil || i != math.MinInt64 {
		t.Fatalf("NormalizeNumeric(-2^63 as float) = %d, %v", i, err)
	}
	// A whole float past int64's range is no int: converting it would wrap.
	for _, f := range []float64{9.223372036854775808e18, 1e300, math.Inf(-1), math.NaN()} {
		if i, _, err := NormalizeNumeric(f, TypeInt); err == nil {
			t.Fatalf("NormalizeNumeric(%g, int) = %d, want an error", f, i)
		}
	}
	if _, _, err := NormalizeNumeric("oops", TypeInt); err == nil {
		t.Fatal("NormalizeNumeric accepted a string")
	}
	if _, _, err := NormalizeNumeric(1, TypeString); err == nil {
		t.Fatal("NormalizeNumeric accepted non-numeric field type")
	}
}

func TestValueToString(t *testing.T) {
	tests := []struct {
		in   any
		want string
	}{
		{"abc", "abc"},
		{true, "true"},
		{false, "false"},
		{42, "42"},
		{int64(42), "42"},
		{6.3, "6.3"},
		{6.0, "6"},
	}
	for _, tt := range tests {
		if got := ValueToString(tt.in); got != tt.want {
			t.Errorf("ValueToString(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestClassForLeakage(t *testing.T) {
	for l := LeakStructure; l <= LeakOrder; l++ {
		c := ClassForLeakage(l)
		if !c.Tolerates(l) {
			t.Errorf("ClassForLeakage(%s) = %s does not tolerate %s", l, c, l)
		}
		if c > Class1 && (c - 1).Tolerates(l) {
			t.Errorf("ClassForLeakage(%s) = %s is not the tightest class", l, c)
		}
	}
}
