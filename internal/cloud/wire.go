// Typed wire codecs for the document and admin services: blobs ride as raw
// bytes. Registered at init so any process importing this package —
// gateway and cloudserver both — negotiates them.

package cloud

import (
	"sort"

	"datablinder/internal/store/docstore"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/transport"
	"datablinder/internal/wirefmt"
)

func appendRecords(b []byte, recs []docstore.Record) []byte {
	b = wirefmt.AppendUvarint(b, uint64(len(recs)))
	for _, rec := range recs {
		b = wirefmt.AppendString(b, rec.ID)
		b = wirefmt.AppendBytes(b, rec.Blob)
	}
	return b
}

func readRecords(r *wirefmt.Reader) []docstore.Record {
	n := r.Count()
	if n == 0 {
		return nil
	}
	recs := make([]docstore.Record, n)
	for i := range recs {
		recs[i].ID = r.String()
		recs[i].Blob = r.Bytes()
	}
	return recs
}

// sortedNames returns m's keys in order: a map encodes deterministically.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func appendStats(b []byte, out *StatsReply) []byte {
	b = wirefmt.AppendUvarint(b, uint64(len(out.Namespaces)))
	for _, name := range sortedNames(out.Namespaces) {
		ns := out.Namespaces[name]
		b = wirefmt.AppendString(b, name)
		b = wirefmt.AppendUvarint(b, uint64(ns.Keys))
		b = wirefmt.AppendUvarint(b, uint64(ns.Items))
		b = wirefmt.AppendInt64(b, ns.Bytes)
	}
	b = wirefmt.AppendUvarint(b, uint64(len(out.Collections)))
	for _, name := range sortedNames(out.Collections) {
		b = wirefmt.AppendString(b, name)
		b = wirefmt.AppendUvarint(b, uint64(out.Collections[name]))
	}
	return b
}

func readStats(r *wirefmt.Reader, out *StatsReply) {
	out.Namespaces = make(map[string]kvstore.NamespaceStats)
	for n := r.Count(); n > 0; n-- {
		name := r.String()
		out.Namespaces[name] = kvstore.NamespaceStats{Keys: int(r.Uvarint()), Items: int(r.Uvarint()), Bytes: r.Int64()}
	}
	out.Collections = make(map[string]int)
	for n := r.Count(); n > 0; n-- {
		name := r.String()
		out.Collections[name] = int(r.Uvarint())
	}
}

func init() {
	transport.RegisterCodec(AdminService, "stats", transport.Codec(
		func(b []byte, _ *StatsArgs) []byte { return b },
		func(*wirefmt.Reader, *StatsArgs) {},
		appendStats, readStats,
	))
	transport.RegisterCodec(DocService, "put", transport.WriteCodec(
		func(b []byte, a *DocPutArgs) []byte {
			b = wirefmt.AppendString(b, a.Collection)
			b = wirefmt.AppendString(b, a.ID)
			b = wirefmt.AppendBytes(b, a.Blob)
			return wirefmt.AppendBool(b, a.IfAbsent)
		},
		func(r *wirefmt.Reader, a *DocPutArgs) {
			a.Collection = r.String()
			a.ID = r.String()
			a.Blob = r.Bytes()
			a.IfAbsent = r.Bool()
		},
	))
	transport.RegisterCodec(DocService, "get", transport.Codec(
		func(b []byte, a *DocGetArgs) []byte {
			b = wirefmt.AppendString(b, a.Collection)
			return wirefmt.AppendString(b, a.ID)
		},
		func(r *wirefmt.Reader, a *DocGetArgs) {
			a.Collection = r.String()
			a.ID = r.String()
		},
		func(b []byte, out *DocGetReply) []byte { return wirefmt.AppendBytes(b, out.Blob) },
		func(r *wirefmt.Reader, out *DocGetReply) { out.Blob = r.Bytes() },
	))
	transport.RegisterCodec(DocService, "getmany", transport.Codec(
		func(b []byte, a *DocGetManyArgs) []byte {
			b = wirefmt.AppendString(b, a.Collection)
			return wirefmt.AppendStrings(b, a.IDs)
		},
		func(r *wirefmt.Reader, a *DocGetManyArgs) {
			a.Collection = r.String()
			a.IDs = r.Strings()
		},
		func(b []byte, out *DocGetManyReply) []byte { return appendRecords(b, out.Records) },
		func(r *wirefmt.Reader, out *DocGetManyReply) { out.Records = readRecords(r) },
	))
	transport.RegisterCodec(DocService, "delete", transport.WriteCodec(
		func(b []byte, a *DocDeleteArgs) []byte {
			b = wirefmt.AppendString(b, a.Collection)
			return wirefmt.AppendString(b, a.ID)
		},
		func(r *wirefmt.Reader, a *DocDeleteArgs) {
			a.Collection = r.String()
			a.ID = r.String()
		},
	))
	transport.RegisterCodec(DocService, "scan", transport.Codec(
		func(b []byte, a *DocScanArgs) []byte {
			b = wirefmt.AppendString(b, a.Collection)
			b = wirefmt.AppendString(b, a.After)
			return wirefmt.AppendUvarint(b, uint64(a.Limit))
		},
		func(r *wirefmt.Reader, a *DocScanArgs) {
			a.Collection = r.String()
			a.After = r.String()
			a.Limit = int(r.Uvarint())
		},
		func(b []byte, out *DocScanReply) []byte { return appendRecords(b, out.Records) },
		func(r *wirefmt.Reader, out *DocScanReply) { out.Records = readRecords(r) },
	))
	transport.RegisterCodec(DocService, "count", transport.Codec(
		func(b []byte, a *DocCountArgs) []byte { return wirefmt.AppendString(b, a.Collection) },
		func(r *wirefmt.Reader, a *DocCountArgs) { a.Collection = r.String() },
		func(b []byte, out *DocCountReply) []byte { return wirefmt.AppendUvarint(b, uint64(out.Count)) },
		func(r *wirefmt.Reader, out *DocCountReply) { out.Count = int(r.Uvarint()) },
	))
}
