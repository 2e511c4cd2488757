package model

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"datablinder/internal/wirefmt"
)

func codecSchema() *Schema {
	return &Schema{Name: "observation", Fields: []Field{
		{Name: "identifier", Type: TypeString},
		{Name: "status", Type: TypeString, Sensitive: true},
		{Name: "effective", Type: TypeInt, Sensitive: true},
		{Name: "value", Type: TypeFloat, Sensitive: true},
		{Name: "final", Type: TypeBool},
		{Name: "naïve-µ", Type: TypeString},
	}}
}

func mustAppend(t testing.TB, s *Schema, fields map[string]any) []byte {
	t.Helper()
	b, err := AppendFields(nil, s, fields)
	if err != nil {
		t.Fatalf("AppendFields(%v): %v", fields, err)
	}
	return b
}

// TestDocCodecDecodedTypes: the Go types DecodeFields hands back are the
// ones the JSON path produced (json.Marshal, then a UseNumber decode
// normalized against the schema): int fields int64, float fields float64,
// whatever numeric representation the caller supplied.
func TestDocCodecDecodedTypes(t *testing.T) {
	s := codecSchema()
	cases := []struct {
		name string
		in   map[string]any
		want map[string]any
	}{
		{"int64 above 2^53", map[string]any{"effective": int64(1)<<53 + 1}, map[string]any{"effective": int64(1)<<53 + 1}},
		{"int64 extremes", map[string]any{"effective": int64(math.MinInt64)}, map[string]any{"effective": int64(math.MinInt64)}},
		{"negative int", map[string]any{"effective": int64(-42)}, map[string]any{"effective": int64(-42)}},
		{"plain int for an int field", map[string]any{"effective": 7}, map[string]any{"effective": int64(7)}},
		{"integral float64 for an int field", map[string]any{"effective": float64(1359966610)}, map[string]any{"effective": int64(1359966610)}},
		{"int64 for a float field", map[string]any{"value": int64(5)}, map[string]any{"value": float64(5)}},
		{"float", map[string]any{"value": 6.3}, map[string]any{"value": 6.3}},
		{"bools", map[string]any{"final": true}, map[string]any{"final": true}},
		{"false", map[string]any{"final": false}, map[string]any{"final": false}},
		{"empty string", map[string]any{"status": ""}, map[string]any{"status": ""}},
		{"non-ASCII name and value", map[string]any{"naïve-µ": "Ωμέγα ✓"}, map[string]any{"naïve-µ": "Ωμέγα ✓"}},
		{"absent fields stay absent", map[string]any{"identifier": "x"}, map[string]any{"identifier": "x"}},
		{"no fields at all", map[string]any{}, map[string]any{}},
		{"every field", map[string]any{"identifier": "f001", "status": "final", "effective": int64(-1), "value": -0.5, "final": true, "naïve-µ": "é"},
			map[string]any{"identifier": "f001", "status": "final", "effective": int64(-1), "value": -0.5, "final": true, "naïve-µ": "é"}},
	}
	for _, tc := range cases {
		got, err := DecodeFields(s, mustAppend(t, s, tc.in))
		if err != nil {
			t.Errorf("%s: DecodeFields: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: decoded %#v, want %#v", tc.name, got, tc.want)
		}
	}
}

// TestDocCodecNonFiniteFloats: json.Marshal rejected NaN and ±Inf, so such
// a document could not be sealed at all; the codec round-trips them bit for
// bit.
func TestDocCodecNonFiniteFloats(t *testing.T) {
	s := codecSchema()
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		if _, err := json.Marshal(map[string]any{"value": f}); err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
			t.Fatalf("json.Marshal accepted %v; the comparison this test documents no longer holds", f)
		}
		got, err := DecodeFields(s, mustAppend(t, s, map[string]any{"value": f}))
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if g := got["value"].(float64); math.Float64bits(g) != math.Float64bits(f) {
			t.Errorf("float %v round-tripped to %v", f, g)
		}
	}
}

// TestDocCodecSchemaChanges: the encoding is keyed by name, so a blob
// survives the schema being re-registered with fields reordered, added or
// dropped; a dropped field is kept and typed by its tag.
func TestDocCodecSchemaChanges(t *testing.T) {
	s := codecSchema()
	in := map[string]any{"identifier": "f001", "status": "final", "effective": int64(9), "value": 1.5, "final": true}
	blob := mustAppend(t, s, in)

	reshaped := &Schema{Name: "observation", Fields: []Field{
		{Name: "value", Type: TypeFloat},
		{Name: "added", Type: TypeString},
		{Name: "identifier", Type: TypeString},
		{Name: "status", Type: TypeString},
		// "effective" and "final" are no longer declared.
	}}
	got, err := DecodeFields(reshaped, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("decoded %#v against the reshaped schema, want %#v", got, in)
	}
}

func TestDocCodecDeterministic(t *testing.T) {
	s := codecSchema()
	in := map[string]any{"identifier": "f001", "status": "final", "effective": int64(9), "value": 1.5, "final": true, "naïve-µ": "z"}
	first := mustAppend(t, s, in)
	for i := 0; i < 20; i++ { // map iteration order differs between runs of the loop
		if again := mustAppend(t, s, in); string(again) != string(first) {
			t.Fatalf("equal documents encoded differently:\n%x\n%x", first, again)
		}
	}
	// dst is appended to, not overwritten.
	b, err := AppendFields([]byte("id"), s, in)
	if err != nil || string(b) != "id"+string(first) {
		t.Fatalf("AppendFields with a prefix = %x, %v", b, err)
	}
}

func TestAppendFieldsRejects(t *testing.T) {
	s := codecSchema()
	for name, in := range map[string]map[string]any{
		"undeclared field":     {"nope": "x"},
		"string for int":       {"effective": "9"},
		"fractional for int":   {"effective": 1.5},
		"NaN for int":          {"effective": math.NaN()},
		"bool for float":       {"value": true},
		"int for string":       {"status": int64(1)},
		"string for bool":      {"final": "true"},
		"nested value":         {"status": map[string]any{"a": 1}},
		"nil value":            {"status": nil},
		"undeclared and valid": {"status": "final", "nope": int64(1)},
	} {
		if b, err := AppendFields(nil, s, in); err == nil {
			t.Errorf("%s: encoded to %x, want an error", name, b)
		}
	}
}

// TestDecodeFieldsMalformed names every way a plaintext can be wrong.
func TestDecodeFieldsMalformed(t *testing.T) {
	s := codecSchema()
	good := mustAppend(t, s, map[string]any{"status": "final", "effective": int64(300), "value": 1.5, "final": true})

	field := func(name string, tag byte, value ...byte) []byte {
		return append(append(wirefmt.AppendString(nil, name), tag), value...)
	}
	doc := func(n uint64, fields ...[]byte) []byte {
		b := wirefmt.AppendUvarint([]byte{docFormat}, n)
		for _, f := range fields {
			b = append(b, f...)
		}
		return b
	}

	for name, b := range map[string][]byte{
		"trailing byte":            append(append([]byte(nil), good...), 0),
		"unknown type tag":         doc(1, field("status", 9, 0)),
		"tag zero":                 doc(1, field("status", 0, 0)),
		"duplicate field name":     doc(2, field("final", tagBool, 1), field("final", tagBool, 0)),
		"bool byte out of range":   doc(1, field("final", tagBool, 2)),
		"short float":              doc(1, field("value", tagFloat, 1, 2, 3, 4, 5, 6, 7)),
		"string longer than input": doc(1, field("status", tagString, 200, 'a')),
		"count larger than input":  doc(1 << 40),
		"count without fields":     doc(3),
		"unterminated varint":      doc(1, field("effective", tagInt, 0x80, 0x80)),
	} {
		_, err := DecodeFields(s, b)
		if !errors.Is(err, wirefmt.ErrMalformed) {
			t.Errorf("%s: err = %v, want wirefmt.ErrMalformed", name, err)
		}
		if errors.Is(err, ErrDocFormat) {
			t.Errorf("%s: reported as a format mismatch: %v", name, err)
		}
	}
	for i := 1; i < len(good); i++ {
		if _, err := DecodeFields(s, good[:i]); !errors.Is(err, wirefmt.ErrMalformed) {
			t.Errorf("truncated to %d of %d bytes: err = %v, want wirefmt.ErrMalformed", i, len(good), err)
		}
	}

	legacy, _ := json.Marshal(map[string]any{"status": "final"})
	for name, b := range map[string][]byte{
		"empty":               nil,
		"JSON document":       legacy,
		"future format byte":  append([]byte{docFormat + 1}, good[1:]...),
		"zero format byte":    append([]byte{0}, good[1:]...),
		"format byte missing": good[1:],
	} {
		if _, err := DecodeFields(s, b); !errors.Is(err, ErrDocFormat) {
			t.Errorf("%s: err = %v, want ErrDocFormat", name, err)
		}
	}
}

// TestDecodeFieldsInternsNames: a declared field's map key is the schema's
// own string, so decoding allocates no key.
func TestDecodeFieldsInternsNames(t *testing.T) {
	s := codecSchema()
	blob := mustAppend(t, s, map[string]any{"final": true, "effective": int64(3)})
	// bool and small-int boxing are allocation-free, so what is left is the
	// map itself; a copied key per field would add two.
	withKeys := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFields(s, blob); err != nil {
			t.Fatal(err)
		}
	})
	undeclared := &Schema{Name: "other", Fields: []Field{{Name: "x", Type: TypeBool}}}
	copied := testing.AllocsPerRun(100, func() {
		if _, err := DecodeFields(undeclared, blob); err != nil {
			t.Fatal(err)
		}
	})
	if copied != withKeys+2 {
		t.Errorf("allocations: %v with declared names, %v with undeclared ones; want exactly 2 more (one copied key per field)", withKeys, copied)
	}
}

// fuzzDoc builds a document from fuzz input: which fields are present and
// what they hold.
func fuzzDoc(present uint8, str string, i int64, f float64, b bool) map[string]any {
	all := map[string]any{"identifier": str, "status": str + "·", "effective": i, "value": f, "final": b, "naïve-µ": ""}
	doc := make(map[string]any)
	bit := uint8(1)
	for _, fd := range codecSchema().Fields {
		if present&bit != 0 {
			doc[fd.Name] = all[fd.Name]
		}
		bit <<= 1
	}
	return doc
}

// FuzzDocCodec: DecodeFields never panics on arbitrary bytes and only ever
// yields the four scalar types; a document built from the fuzz input
// round-trips exactly, and neither a truncated encoding of it nor one with
// a trailing byte decodes.
func FuzzDocCodec(f *testing.F) {
	s := codecSchema()
	f.Add([]byte(nil), uint8(0), "", int64(0), 0.0, false)
	f.Add([]byte(`{"status":"final"}`), uint8(0x3f), "f001", int64(math.MaxInt64), math.Inf(-1), true)
	f.Add(mustAppend(f, s, fuzzDoc(0x3f, "x", -1, 6.3, true)), uint8(0x15), "ünï", int64(math.MinInt64), math.NaN(), false)
	f.Add([]byte{docFormat, 1, 1, 'a', 9, 0}, uint8(1), "a", int64(1), 1.0, true)
	f.Add([]byte{docFormat, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(2), "", int64(2), 2.0, true)

	same := func(a, b map[string]any) bool {
		if len(a) != len(b) {
			return false
		}
		for k, av := range a {
			bv, ok := b[k]
			if !ok {
				return false
			}
			af, aIsF := av.(float64)
			bf, bIsF := bv.(float64)
			if aIsF != bIsF || (aIsF && math.Float64bits(af) != math.Float64bits(bf)) || (!aIsF && av != bv) {
				return false
			}
		}
		return true
	}

	f.Fuzz(func(t *testing.T, raw []byte, present uint8, str string, i int64, fl float64, b bool) {
		if got, err := DecodeFields(s, raw); err == nil {
			for k, v := range got {
				switch v.(type) {
				case string, int64, float64, bool:
				default:
					t.Fatalf("field %q decoded to a %T", k, v)
				}
			}
		}

		doc := fuzzDoc(present, str, i, fl, b)
		enc, err := AppendFields(nil, s, doc)
		if err != nil {
			t.Fatalf("AppendFields(%#v): %v", doc, err)
		}
		dec, err := DecodeFields(s, enc)
		if err != nil {
			t.Fatalf("DecodeFields(AppendFields(%#v)): %v", doc, err)
		}
		if !same(doc, dec) {
			t.Fatalf("round trip changed the document: %#v -> %#v", doc, dec)
		}
		if len(enc) > 1 {
			if _, err := DecodeFields(s, enc[:len(enc)-1]); err == nil {
				t.Fatalf("a truncated encoding of %#v decoded", doc)
			}
		}
		if _, err := DecodeFields(s, append(enc, 0)); err == nil {
			t.Fatalf("an encoding of %#v with a trailing byte decoded", doc)
		}
	})
}
