// Typed wire codecs for the Paillier aggregation tactic: the modulus and
// ~256-byte ciphertexts ride as raw bytes.

package paillier

import (
	"datablinder/internal/tactics/cell"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

func init() {
	cell.Register(Service, "put", "remove")
	transport.RegisterCodec(Service, "setup", transport.WriteCodec(
		func(b []byte, a *SetupArgs) []byte {
			b = wirefmt.AppendString(b, a.Schema)
			return wirefmt.AppendBytes(b, a.N)
		},
		func(r *wirefmt.Reader, a *SetupArgs) {
			a.Schema = r.String()
			a.N = r.Bytes()
		},
	))
	transport.RegisterCodec(Service, "sum", transport.Codec(
		func(b []byte, a *SumArgs) []byte {
			b = wirefmt.AppendString(b, a.Schema)
			b = wirefmt.AppendString(b, a.Field)
			return wirefmt.AppendStrings(b, a.DocIDs)
		},
		func(r *wirefmt.Reader, a *SumArgs) {
			a.Schema = r.String()
			a.Field = r.String()
			a.DocIDs = r.Strings()
		},
		func(b []byte, out *SumReply) []byte {
			b = wirefmt.AppendBytes(b, out.CT)
			return wirefmt.AppendUvarint(b, uint64(out.Count))
		},
		func(r *wirefmt.Reader, out *SumReply) {
			out.CT = r.Bytes()
			out.Count = int(r.Uvarint())
		},
	))
}
