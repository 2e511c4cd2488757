// Package wirefmt provides the append-style binary primitives underlying
// wire codec v2 (internal/transport) and the plaintexts sealed at rest
// (internal/model documents, internal/sse/emm id lists): unsigned varints,
// zigzag-encoded signed varints, fixed-width floats, and length-prefixed
// byte/string fields.
//
// Writers append into caller-owned buffers (typically drawn from the
// transport frame pool) and never allocate beyond slice growth. Readers
// are strictly bounds-checked and never panic on malformed input: every
// length is validated against the remaining input before it is used, so
// adversarial frames fail with ErrMalformed instead of an out-of-memory
// allocation or an index panic. Decoded byte slices alias the input
// buffer (zero-copy); callers that retain them beyond the buffer's
// lifetime must copy.
package wirefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrMalformed reports a truncated or corrupt binary value.
var ErrMalformed = errors.New("wirefmt: malformed input")

// AppendUvarint appends u in unsigned LEB128 form.
func AppendUvarint(b []byte, u uint64) []byte {
	return binary.AppendUvarint(b, u)
}

// AppendInt64 appends v as a zigzag-encoded varint.
func AppendInt64(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// AppendBytes appends p as a length-prefixed byte field. nil and empty
// slices both encode as length 0 (the wire does not distinguish them).
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s as a length-prefixed string field.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat64 appends the 8 IEEE-754 bytes of f, little-endian. Every bit
// pattern round-trips, NaN payloads and signed zeros included.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendByteSlices appends a count-prefixed sequence of byte fields.
func AppendByteSlices(b []byte, ps [][]byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = AppendBytes(b, p)
	}
	return b
}

// AppendStrings appends a count-prefixed sequence of string fields.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendUint64s appends a count-prefixed sequence of uvarints.
func AppendUint64s(b []byte, us []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(us)))
	for _, u := range us {
		b = binary.AppendUvarint(b, u)
	}
	return b
}

// Reader consumes binary fields from a buffer. The first malformed field
// latches an error; subsequent reads return zero values, so decode
// functions can read unconditionally and check Err once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader aliases b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// readerPool recycles Reader structs for the hot decode paths: a Reader
// passed through a function pointer escapes to the heap, and payload
// decoders run once per RPC. Decoded values alias the payload buffer, not
// the Reader, so pooling the struct is safe as long as the decode
// function does not retain the Reader itself.
var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// GetReader returns a pooled Reader over b. Return it with PutReader once
// decoding is done; the decode function must not retain it.
func GetReader(b []byte) *Reader {
	r := readerPool.Get().(*Reader)
	r.b, r.err = b, nil
	return r
}

// PutReader recycles a Reader obtained from GetReader.
func PutReader(r *Reader) {
	r.b, r.err = nil, nil
	readerPool.Put(r)
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *Reader) Len() int { return len(r.b) }

// Finish returns the latched error, or ErrMalformed if unconsumed bytes
// remain (a well-formed value consumes its input exactly).
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.b))
	}
	return nil
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrMalformed
	}
}

// Byte consumes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Uvarint consumes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return u
}

// Int64 consumes one zigzag-encoded varint.
func (r *Reader) Int64() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Float64 consumes the 8 bytes written by AppendFloat64.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// Count consumes a count prefix, rejecting counts that could not possibly
// fit in the remaining input (each element needs ≥1 byte). This bounds
// slice pre-allocation by the input size, so a hostile 2^60 count cannot
// force a huge make().
func (r *Reader) Count() int {
	u := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if u > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(u)
}

// Bytes consumes one length-prefixed byte field. The result aliases the
// input buffer; it is nil for a zero-length field.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// String consumes one length-prefixed string field (copies).
func (r *Reader) String() string { return string(r.Bytes()) }

// Bool consumes one 0/1 byte; any other value is malformed.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail()
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// ByteSlices consumes a count-prefixed sequence of byte fields.
func (r *Reader) ByteSlices() [][]byte {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = r.Bytes()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Strings consumes a count-prefixed sequence of string fields.
func (r *Reader) Strings() []string {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Uint64s consumes a count-prefixed sequence of uvarints.
func (r *Reader) Uint64s() []uint64 {
	n := r.Count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uvarint()
	}
	if r.err != nil {
		return nil
	}
	return out
}
