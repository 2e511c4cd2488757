// Record framing: the unit a store appends and its recovery replays. A
// record is
//
//	uvarint(seq) | uvarint(len(payload)) | payload | crc32c (4 bytes LE)
//
// where the CRC covers the encoded header and the payload, so a torn or
// bit-flipped length is caught exactly like a torn payload. Raw bytes ride
// as raw bytes, and the sequence number is the *store's* commit order, not
// the file order: appends happen outside the stores' stripe locks, so two
// records may land in the file slightly out of sequence and recovery
// re-sorts per stripe before applying.
//
// The reader never trusts a decoded length before bounding it (a corrupt
// 2^60 length must error, not allocate), never panics on malformed input,
// and reports the byte offset of the last well-formed record so lenient
// recovery can truncate a torn tail in place.

package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxRecordSize bounds one record's payload. Store operations are index
// cells and document blobs — far below this — so any larger decoded
// length is corruption, rejected before allocation.
const MaxRecordSize = 64 << 20

// ErrTorn reports a truncated or corrupt record: a partial header, a
// payload cut short, an insane length, or a CRC mismatch. In lenient
// recovery a torn tail of the last segment is truncated at the last valid
// record; anywhere else it is fatal.
var ErrTorn = errors.New("wal: torn or corrupt record")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends one framed record to b and returns the extended
// slice. It is the only encoder; snapshots reuse it with the snapshot's
// covering sequence.
func AppendRecord(b []byte, seq uint64, payload []byte) []byte {
	start := len(b)
	b = binary.AppendUvarint(b, seq)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	crc := crc32.Checksum(b[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// RecordReader decodes a stream of framed records, tracking the offset of
// the last clean record boundary.
type RecordReader struct {
	br      *bufio.Reader
	scratch []byte
	off     int64
}

// NewRecordReader returns a reader over r.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Offset returns the byte offset just past the last successfully decoded
// record — the truncation point when the next record is torn.
func (r *RecordReader) Offset() int64 { return r.off }

// readUvarint consumes one LEB128 varint, appending its raw bytes to
// scratch (the CRC covers the bytes as written, not a re-encoding).
func (r *RecordReader) readUvarint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		b, err := r.br.ReadByte()
		if err != nil {
			return 0, err
		}
		r.scratch = append(r.scratch, b)
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: varint overflow", ErrTorn)
}

// Next returns the next record's sequence and payload. The payload is a
// fresh allocation owned by the caller. A clean end of input returns
// io.EOF; anything else mid-record returns an error wrapping ErrTorn.
func (r *RecordReader) Next() (seq uint64, payload []byte, err error) {
	r.scratch = r.scratch[:0]
	seq, err = r.readUvarint()
	if err != nil {
		if err == io.EOF && len(r.scratch) == 0 {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: header: %v", ErrTorn, err)
	}
	n, err := r.readUvarint()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: length: %v", ErrTorn, err)
	}
	if n > MaxRecordSize {
		return 0, nil, fmt.Errorf("%w: record length %d exceeds cap", ErrTorn, n)
	}
	hdr := len(r.scratch)
	need := int(n) + 4
	if cap(r.scratch) < hdr+need {
		r.scratch = append(r.scratch, make([]byte, need)...)
	} else {
		r.scratch = r.scratch[:hdr+need]
	}
	if _, err := io.ReadFull(r.br, r.scratch[hdr:]); err != nil {
		return 0, nil, fmt.Errorf("%w: body: %v", ErrTorn, err)
	}
	body := r.scratch[:hdr+int(n)]
	want := binary.LittleEndian.Uint32(r.scratch[hdr+int(n):])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, nil, fmt.Errorf("%w: crc mismatch", ErrTorn)
	}
	payload = append([]byte(nil), body[hdr:]...)
	r.off += int64(hdr + need)
	return seq, payload, nil
}
