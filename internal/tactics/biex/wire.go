// Typed wire codecs (codec v2) for the BIEX tactic. A k-keyword document
// insert ships O(k²) PRF-sized cells; with JSON every cell pays two base64
// fields plus key names, so this is the codec with the most to gain.

package biex

import (
	ssebiex "datablinder/internal/sse/biex"
	"datablinder/internal/sse/emm"
	"datablinder/internal/sse/zmf"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

func appendCells(b []byte, cells []emm.Entry) []byte {
	b = wirefmt.AppendUvarint(b, uint64(len(cells)))
	for _, e := range cells {
		b = wirefmt.AppendBytes(b, e.Addr)
		b = wirefmt.AppendBytes(b, e.Val)
	}
	return b
}

func readCells(r *wirefmt.Reader) []emm.Entry {
	n := r.Count()
	if n == 0 {
		return nil
	}
	cells := make([]emm.Entry, n)
	for i := range cells {
		cells[i].Addr = r.Bytes()
		cells[i].Val = r.Bytes()
	}
	return cells
}

func appendEMMToken(b []byte, t *emm.SearchToken) []byte {
	b = wirefmt.AppendBytes(b, t.AddrKey)
	b = wirefmt.AppendBytes(b, t.ValueKey)
	b = wirefmt.AppendUvarint(b, t.Counts.Packed)
	return wirefmt.AppendUvarint(b, t.Counts.Tail)
}

func readEMMToken(r *wirefmt.Reader, t *emm.SearchToken) {
	t.AddrKey = r.Bytes()
	t.ValueKey = r.Bytes()
	t.Counts.Packed = r.Uvarint()
	t.Counts.Tail = r.Uvarint()
}

// Constraint flag bits.
const (
	conFlagCross   = 1 << 0
	conFlagFilter  = 1 << 1
	conFlagNegated = 1 << 2
)

func init() {
	transport.RegisterCodec(Service, "insert", transport.WriteCodec(
		func(b []byte, a *InsertArgs) []byte {
			b = wirefmt.AppendString(b, a.Namespace)
			b = appendCells(b, a.Entries.Global)
			b = wirefmt.AppendUvarint(b, uint64(len(a.Entries.CrossPacked)))
			for _, p := range a.Entries.CrossPacked {
				b = wirefmt.AppendUvarint(b, uint64(p.Count))
				b = wirefmt.AppendUvarint(b, uint64(p.AddrLen))
				b = wirefmt.AppendUvarint(b, uint64(p.ValLen))
				b = wirefmt.AppendBytes(b, p.Addrs)
				b = wirefmt.AppendBytes(b, p.Vals)
				b = wirefmt.AppendBytes(b, p.Shared)
				b = wirefmt.AppendBytes(b, p.Nonce)
			}
			b = wirefmt.AppendUvarint(b, uint64(len(a.Entries.Filter)))
			for _, f := range a.Entries.Filter {
				b = wirefmt.AppendBytes(b, f.Label)
				b = wirefmt.AppendUint64s(b, f.Positions)
				b = wirefmt.AppendInt64(b, f.Delta)
			}
			return b
		},
		func(r *wirefmt.Reader, a *InsertArgs) {
			a.Namespace = r.String()
			a.Entries.Global = readCells(r)
			if n := r.Count(); n > 0 {
				a.Entries.CrossPacked = make([]ssebiex.PackedEntry, n)
				for i := range a.Entries.CrossPacked {
					p := &a.Entries.CrossPacked[i]
					p.Count = int(r.Uvarint())
					p.AddrLen = int(r.Uvarint())
					p.ValLen = int(r.Uvarint())
					p.Addrs = r.Bytes()
					p.Vals = r.Bytes()
					p.Shared = r.Bytes()
					p.Nonce = r.Bytes()
				}
			}
			if n := r.Count(); n > 0 {
				a.Entries.Filter = make([]zmf.UpdateEntry, n)
				for i := range a.Entries.Filter {
					f := &a.Entries.Filter[i]
					f.Label = r.Bytes()
					f.Positions = r.Uint64s()
					f.Delta = r.Int64()
				}
			}
		},
	))
	transport.RegisterCodec(Service, "search", transport.Codec(
		func(b []byte, a *SearchArgs) []byte {
			b = wirefmt.AppendString(b, a.Namespace)
			b = wirefmt.AppendUvarint(b, uint64(len(a.Token.Conjunctions)))
			for i := range a.Token.Conjunctions {
				cj := &a.Token.Conjunctions[i]
				b = wirefmt.AppendUvarint(b, uint64(len(cj.Anchors)))
				for j := range cj.Anchors {
					b = appendEMMToken(b, &cj.Anchors[j])
				}
				b = wirefmt.AppendUvarint(b, uint64(len(cj.Constraints)))
				for j := range cj.Constraints {
					c := &cj.Constraints[j]
					var flags byte
					if c.Cross != nil {
						flags |= conFlagCross
					}
					if c.Filter != nil {
						flags |= conFlagFilter
					}
					if c.Negated {
						flags |= conFlagNegated
					}
					b = append(b, flags)
					if c.Cross != nil {
						b = appendEMMToken(b, c.Cross)
					}
					if c.Filter != nil {
						b = wirefmt.AppendBytes(b, c.Filter.Label)
						b = wirefmt.AppendBytes(b, c.Filter.ProbeKey)
					}
				}
			}
			return b
		},
		func(r *wirefmt.Reader, a *SearchArgs) {
			a.Namespace = r.String()
			n := r.Count()
			if n == 0 {
				return
			}
			a.Token.Conjunctions = make([]ssebiex.ConjToken, n)
			for i := range a.Token.Conjunctions {
				cj := &a.Token.Conjunctions[i]
				if m := r.Count(); m > 0 {
					cj.Anchors = make([]emm.SearchToken, m)
					for j := range cj.Anchors {
						readEMMToken(r, &cj.Anchors[j])
					}
				}
				if m := r.Count(); m > 0 {
					cj.Constraints = make([]ssebiex.Constraint, m)
					for j := range cj.Constraints {
						c := &cj.Constraints[j]
						flags := r.Byte()
						if flags&conFlagCross != 0 {
							c.Cross = new(emm.SearchToken)
							readEMMToken(r, c.Cross)
						}
						if flags&conFlagFilter != 0 {
							c.Filter = new(zmf.TestToken)
							c.Filter.Label = r.Bytes()
							c.Filter.ProbeKey = r.Bytes()
						}
						c.Negated = flags&conFlagNegated != 0
					}
				}
			}
		},
		func(b []byte, out *SearchReply) []byte { return wirefmt.AppendStrings(b, out.IDs) },
		func(r *wirefmt.Reader, out *SearchReply) { out.IDs = r.Strings() },
	))
	transport.RegisterCodec(Service, "repack", transport.WriteCodec(
		func(b []byte, a *RepackArgs) []byte {
			b = wirefmt.AppendString(b, a.Namespace)
			b = wirefmt.AppendByteSlices(b, a.Stale)
			return appendCells(b, a.Entries)
		},
		func(r *wirefmt.Reader, a *RepackArgs) {
			a.Namespace = r.String()
			a.Stale = r.ByteSlices()
			a.Entries = readCells(r)
		},
	))
}
