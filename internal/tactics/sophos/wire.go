// Typed wire codecs for the Sophos SSE tactic. The public key's encoding is
// also the form the cloud keeps it in.

package sophos

import (
	ssesophos "datablinder/internal/sse/sophos"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

// appendPK appends the TDP public key as {n, e}.
func appendPK(b []byte, pk ssesophos.PublicKey) []byte {
	b = wirefmt.AppendBytes(b, pk.N)
	return wirefmt.AppendUvarint(b, uint64(pk.E))
}

func readPK(r *wirefmt.Reader) ssesophos.PublicKey {
	return ssesophos.PublicKey{N: r.Bytes(), E: int(r.Uvarint())}
}

func init() {
	transport.RegisterCodec(Service, "setup", transport.WriteCodec(
		func(b []byte, a *SetupArgs) []byte {
			b = wirefmt.AppendString(b, a.Schema)
			return appendPK(b, a.PK)
		},
		func(r *wirefmt.Reader, a *SetupArgs) {
			a.Schema = r.String()
			a.PK = readPK(r)
		},
	))
	transport.RegisterCodec(Service, "insert", transport.WriteCodec(
		func(b []byte, a *InsertArgs) []byte {
			b = wirefmt.AppendString(b, a.Schema)
			b = wirefmt.AppendUvarint(b, uint64(len(a.Entries)))
			for _, e := range a.Entries {
				b = wirefmt.AppendBytes(b, e.Addr)
				b = wirefmt.AppendBytes(b, e.Val)
			}
			return b
		},
		func(r *wirefmt.Reader, a *InsertArgs) {
			a.Schema = r.String()
			n := r.Count()
			if n == 0 {
				return
			}
			a.Entries = make([]ssesophos.Entry, n)
			for i := range a.Entries {
				a.Entries[i].Addr = r.Bytes()
				a.Entries[i].Val = r.Bytes()
			}
		},
	))
	transport.RegisterCodec(Service, "search", transport.Codec(
		func(b []byte, a *SearchArgs) []byte {
			b = wirefmt.AppendString(b, a.Schema)
			b = wirefmt.AppendBytes(b, a.Token.KeywordKey)
			b = wirefmt.AppendBytes(b, a.Token.ST)
			return wirefmt.AppendUvarint(b, a.Token.Count)
		},
		func(r *wirefmt.Reader, a *SearchArgs) {
			a.Schema = r.String()
			a.Token.KeywordKey = r.Bytes()
			a.Token.ST = r.Bytes()
			a.Token.Count = r.Uvarint()
		},
		func(b []byte, out *SearchReply) []byte { return wirefmt.AppendStrings(b, out.IDs) },
		func(r *wirefmt.Reader, out *SearchReply) { out.IDs = r.Strings() },
	))
}
