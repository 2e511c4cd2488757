package wirefmt

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip writes one of every primitive into a single buffer and
// reads them back in order, boundary values included.
func TestRoundTrip(t *testing.T) {
	uvarints := []uint64{0, 1, 127, 128, 1 << 14, 1<<32 - 1, 1 << 53, math.MaxUint64}
	ints := []int64{0, 1, -1, 63, -64, 64, -65, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1.5, -6.3, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	strs := []string{"", "a", "naïve ✓", string(make([]byte, 300))}
	blobs := [][]byte{nil, {0}, bytes.Repeat([]byte{0xab}, 129)}

	var b []byte
	for _, u := range uvarints {
		b = AppendUvarint(b, u)
	}
	for _, v := range ints {
		b = AppendInt64(b, v)
	}
	for _, f := range floats {
		b = AppendFloat64(b, f)
	}
	for _, s := range strs {
		b = AppendString(b, s)
	}
	for _, p := range blobs {
		b = AppendBytes(b, p)
	}
	b = AppendBool(AppendBool(b, true), false)
	b = append(b, 0x7e)
	b = AppendStrings(b, strs)
	b = AppendStrings(b, nil)
	b = AppendByteSlices(b, blobs)
	b = AppendUint64s(b, uvarints)

	r := NewReader(b)
	for _, want := range uvarints {
		if got := r.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range ints {
		if got := r.Int64(); got != want {
			t.Errorf("Int64 = %d, want %d", got, want)
		}
	}
	for _, want := range floats {
		if got := r.Float64(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Float64 = %v (%x), want %v (%x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, want := range strs {
		if got := r.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	for _, want := range blobs {
		if got := r.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("Bytes = %x, want %x", got, want)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool did not read true, false")
	}
	if got := r.Byte(); got != 0x7e {
		t.Errorf("Byte = %#x, want 0x7e", got)
	}
	if got := r.Strings(); !reflect.DeepEqual(got, strs) {
		t.Errorf("Strings = %q, want %q", got, strs)
	}
	if got := r.Strings(); got != nil {
		t.Errorf("empty Strings = %q, want nil", got)
	}
	if got := r.ByteSlices(); len(got) != len(blobs) || !bytes.Equal(got[2], blobs[2]) || got[0] != nil {
		t.Errorf("ByteSlices = %x, want %x", got, blobs)
	}
	if got := r.Uint64s(); !reflect.DeepEqual(got, uvarints) {
		t.Errorf("Uint64s = %d, want %d", got, uvarints)
	}
	if err := r.Finish(); err != nil {
		t.Errorf("Finish after reading everything: %v", err)
	}
}

// TestBounds: every read validates against the remaining input, the first
// failure latches, and later reads return zero values.
func TestBounds(t *testing.T) {
	cases := map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"Byte on empty input":           {nil, func(r *Reader) { r.Byte() }},
		"Uvarint on empty input":        {nil, func(r *Reader) { r.Uvarint() }},
		"Uvarint never terminated":      {[]byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }},
		"Uvarint overflowing 64 bits":   {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		"Int64 never terminated":        {[]byte{0xff}, func(r *Reader) { r.Int64() }},
		"Float64 with 7 bytes":          {make([]byte, 7), func(r *Reader) { r.Float64() }},
		"Bool with value 2":             {[]byte{2}, func(r *Reader) { r.Bool() }},
		"Bool on empty input":           {nil, func(r *Reader) { r.Bool() }},
		"Bytes longer than input":       {[]byte{5, 1, 2}, func(r *Reader) { r.Bytes() }},
		"String with a 2^60 length":     {AppendUvarint(nil, 1<<60), func(r *Reader) { _ = r.String() }},
		"Count larger than input":       {AppendUvarint(nil, 1<<60), func(r *Reader) { r.Count() }},
		"Strings with a hostile count":  {AppendUvarint(nil, 1<<40), func(r *Reader) { r.Strings() }},
		"Strings cut inside an element": {[]byte{2, 1, 'a', 9, 'b'}, func(r *Reader) { r.Strings() }},
		"ByteSlices cut short":          {[]byte{3, 0, 0}, func(r *Reader) { r.ByteSlices() }},
		"Uint64s cut short":             {[]byte{2, 1, 0x80}, func(r *Reader) { r.Uint64s() }},
	}
	for name, tc := range cases {
		r := NewReader(tc.in)
		tc.read(r)
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: Err = %v, want ErrMalformed", name, r.Err())
		}
		if r.Byte() != 0 || r.Uvarint() != 0 || r.Int64() != 0 || r.Float64() != 0 || r.Bool() || r.Bytes() != nil || r.Strings() != nil {
			t.Errorf("%s: reads after the failure returned non-zero values", name)
		}
		if !errors.Is(r.Finish(), ErrMalformed) {
			t.Errorf("%s: Finish = %v, want ErrMalformed", name, r.Finish())
		}
	}

	r := NewReader([]byte{1, 2})
	r.Byte()
	if r.Err() != nil || r.Len() != 1 {
		t.Fatalf("after one Byte: Err = %v, Len = %d", r.Err(), r.Len())
	}
	if err := r.Finish(); !errors.Is(err, ErrMalformed) {
		t.Errorf("Finish with a trailing byte = %v, want ErrMalformed", err)
	}
}

// TestStringsDoNotAliasInput: decoded strings are copies, which is what lets
// callers decode out of a recycled buffer; byte fields alias it by contract.
func TestStringsDoNotAliasInput(t *testing.T) {
	b := AppendBytes(AppendStrings(AppendString(nil, "hello"), []string{"ab", "cd"}), []byte("raw"))
	r := NewReader(b)
	s, ss, p := r.String(), r.Strings(), r.Bytes()
	for i := range b {
		b[i] = 'x'
	}
	if s != "hello" || ss[0] != "ab" || ss[1] != "cd" {
		t.Errorf("strings changed with the input buffer: %q %q", s, ss)
	}
	if string(p) != "xxx" {
		t.Errorf("Bytes = %q, want a slice aliasing the (overwritten) input", p)
	}
}

func TestPooledReader(t *testing.T) {
	r := GetReader(AppendInt64(nil, -7))
	if got := r.Int64(); got != -7 || r.Finish() != nil {
		t.Fatalf("pooled reader: Int64 = %d, Finish = %v", got, r.Finish())
	}
	r.Byte() // latch an error before recycling
	PutReader(r)
	r = GetReader([]byte{1})
	defer PutReader(r)
	if !r.Bool() || r.Err() != nil {
		t.Fatalf("recycled reader kept state: Err = %v", r.Err())
	}
}

// FuzzReader drives every read method over arbitrary bytes in an order the
// input picks: no panic, no read past the input, and an allocation bounded
// by the input (Count's guarantee), whatever the lengths claim.
func FuzzReader(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(AppendStrings(nil, []string{"a", "bc"}))
	f.Add(AppendUvarint([]byte{7}, 1<<60))
	f.Add(AppendFloat64(AppendInt64([]byte{3, 2}, -1), math.NaN()))
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		r := NewReader(in[1:])
		for step := in[0]; r.Err() == nil && r.Len() > 0; step = step*31 + 7 {
			before := r.Len()
			switch step % 10 {
			case 0:
				r.Byte()
			case 1:
				r.Uvarint()
			case 2:
				r.Int64()
			case 3:
				r.Float64()
			case 4:
				r.Bool()
			case 5:
				if p := r.Bytes(); len(p) > before {
					t.Fatalf("Bytes returned %d bytes out of %d remaining", len(p), before)
				}
			case 6:
				if s := r.String(); len(s) > before {
					t.Fatalf("String returned %d bytes out of %d remaining", len(s), before)
				}
			case 7:
				if ss := r.Strings(); len(ss) > before {
					t.Fatalf("Strings returned %d elements out of %d remaining bytes", len(ss), before)
				}
			case 8:
				if ps := r.ByteSlices(); len(ps) > before {
					t.Fatalf("ByteSlices returned %d elements out of %d remaining bytes", len(ps), before)
				}
			case 9:
				if us := r.Uint64s(); len(us) > before {
					t.Fatalf("Uint64s returned %d elements out of %d remaining bytes", len(us), before)
				}
			}
			if r.Err() == nil && r.Len() >= before {
				t.Fatalf("a successful read (step %d) consumed nothing", step%10)
			}
			if r.Len() > before {
				t.Fatalf("reader grew from %d to %d bytes", before, r.Len())
			}
		}
	})
}
