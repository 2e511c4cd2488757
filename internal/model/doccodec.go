package model

import (
	"errors"
	"fmt"

	"datablinder/internal/wirefmt"
)

// The document codec: the one plaintext form of a document's fields inside
// its whole-document AEAD (DESIGN.md §6, "Document and id-list encoding at
// rest").
//
//	docFormat · uvarint n · n × ( name · tag · value )
//
//	name        uvarint length + bytes
//	tagString   uvarint length + bytes
//	tagInt      zig-zag varint
//	tagFloat    the 8 IEEE-754 bytes, little-endian (NaN and ±Inf included)
//	tagBool     one byte, 0 or 1
//
// Fields are written in schema declaration order, so equal documents encode
// equally; they are keyed by name, not position, so a blob stays readable
// after the schema is re-registered with fields added, removed or reordered.

// docFormat is the first plaintext byte of every sealed document. A JSON
// object starts with '{', so a blob from before the codec can never be taken
// for one. Changing the layout means a new value here and a decision on what
// to do with blobs carrying the old one.
const docFormat byte = 0x01

const (
	tagString byte = 1 + iota
	tagInt
	tagFloat
	tagBool
)

// ErrDocFormat reports a document plaintext whose first byte is not the
// format byte: it was not written by AppendFields (for instance a JSON
// document from before the codec). There is no fallback decoder.
var ErrDocFormat = errors.New("model: document plaintext is not in the binary document format")

// AppendFields appends the encoding of fields to dst. Every field must be
// declared by s and hold a value its declared type accepts (what
// Document.ValidateAgainst checks); numeric values are stored normalized, an
// int field as int64 and a float field as float64.
func AppendFields(dst []byte, s *Schema, fields map[string]any) ([]byte, error) {
	dst = append(dst, docFormat)
	dst = wirefmt.AppendUvarint(dst, uint64(len(fields)))
	written := 0
	for i := range s.Fields {
		f := &s.Fields[i]
		v, ok := fields[f.Name]
		if !ok {
			continue
		}
		written++
		dst = wirefmt.AppendString(dst, f.Name)
		switch f.Type {
		case TypeString:
			x, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("model: field %q: want string, got %T", f.Name, v)
			}
			dst = wirefmt.AppendString(append(dst, tagString), x)
		case TypeInt:
			x, _, err := NormalizeNumeric(v, TypeInt)
			if err != nil {
				return nil, fmt.Errorf("model: field %q: %w", f.Name, err)
			}
			dst = wirefmt.AppendInt64(append(dst, tagInt), x)
		case TypeFloat:
			_, x, err := NormalizeNumeric(v, TypeFloat)
			if err != nil {
				return nil, fmt.Errorf("model: field %q: %w", f.Name, err)
			}
			dst = wirefmt.AppendFloat64(append(dst, tagFloat), x)
		case TypeBool:
			x, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("model: field %q: want bool, got %T", f.Name, v)
			}
			dst = wirefmt.AppendBool(append(dst, tagBool), x)
		default:
			return nil, fmt.Errorf("model: field %q has invalid type %q", f.Name, string(f.Type))
		}
	}
	if written != len(fields) {
		return nil, fmt.Errorf("model: %d document fields are not declared by schema %q", len(fields)-written, s.Name)
	}
	return dst, nil
}

// DecodeFields decodes a plaintext written by AppendFields. Values come back
// as string, int64, float64 or bool, typed by their tag; a name s declares
// maps to the schema's own string (no allocation per key), a name it no
// longer declares is kept under a fresh copy. Decoded strings never alias b.
// A first byte other than the format byte is ErrDocFormat; anything else
// that AppendFields could not have written — truncation, trailing bytes, an
// unknown tag, a repeated name — wraps wirefmt.ErrMalformed.
func DecodeFields(s *Schema, b []byte) (map[string]any, error) {
	if len(b) == 0 || b[0] != docFormat {
		return nil, ErrDocFormat
	}
	r := wirefmt.NewReader(b[1:])
	n := r.Count()
	if n > r.Len()/3 { // a field is at least a name length, a tag and a value byte
		return nil, fmt.Errorf("model: decoding document: %w", wirefmt.ErrMalformed)
	}
	fields := make(map[string]any, n)
	next := 0
	for i := 0; i < n; i++ {
		raw := r.Bytes()
		var name string
		name, next = s.internFieldName(raw, next)
		var v any
		switch tag := r.Byte(); tag {
		case tagString:
			v = r.String()
		case tagInt:
			v = r.Int64()
		case tagFloat:
			v = r.Float64()
		case tagBool:
			v = r.Bool()
		default:
			if r.Err() == nil {
				return nil, fmt.Errorf("model: decoding document: field %q: %w: unknown type tag %d", name, wirefmt.ErrMalformed, tag)
			}
		}
		if r.Err() != nil {
			break
		}
		fields[name] = v
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("model: decoding document: %w", err)
	}
	if len(fields) != n {
		return nil, fmt.Errorf("model: decoding document: %w: repeated field name", wirefmt.ErrMalformed)
	}
	return fields, nil
}

// internFieldName returns the schema's own string for a decoded field name,
// scanning from the position after the previous match: AppendFields writes
// in declaration order, so the first comparison usually hits. A name the
// schema does not declare is copied.
func (s *Schema) internFieldName(raw []byte, from int) (string, int) {
	for k := range s.Fields {
		i := (from + k) % len(s.Fields)
		if s.Fields[i].Name == string(raw) {
			return s.Fields[i].Name, i + 1
		}
	}
	return string(raw), from
}
