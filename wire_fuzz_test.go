package datablinder_test

import (
	"bytes"
	"testing"

	// Codec registrations ride on package imports; the root package pulls
	// in the cloud node and every tactic, so the full production codec set
	// is visible here.
	"datablinder/internal/cloud"
	ssebiex "datablinder/internal/sse/biex"
	"datablinder/internal/sse/emm"
	ssesophos "datablinder/internal/sse/sophos"
	"datablinder/internal/sse/zmf"
	"datablinder/internal/store/kvstore"
	_ "datablinder/internal/tactics"
	tbiex "datablinder/internal/tactics/biex"
	"datablinder/internal/tactics/cell"
	tdet "datablinder/internal/tactics/det"
	tpaillier "datablinder/internal/tactics/paillier"
	trnd "datablinder/internal/tactics/rnd"
	tsophos "datablinder/internal/tactics/sophos"
	"datablinder/internal/transport"
)

// wireMethods is the size of the production codec registry: twenty-eight
// hot methods, and agg.setup, sophos.setup and admin.stats since the wire
// lost its JSON payloads. Ten of them share the cell codec.
const wireMethods = 31

// FuzzPayloadCodecs feeds arbitrary bytes to every registered typed codec
// (args and reply decoders). Malformed payloads must error without
// panicking; payloads that decode must re-encode deterministically and
// byte-identically (encode stability is what makes a decode→encode proxy
// hop lossless).
func FuzzPayloadCodecs(f *testing.F) {
	methods := transport.RegisteredWireMethods()
	if len(methods) != wireMethods {
		f.Fatalf("%d registered wire codecs, want %d: %v", len(methods), wireMethods, methods)
	}
	node, err := cloud.NewNode(cloud.Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer node.Close()
	for _, name := range node.Mux.Services() {
		if transport.LookupCodec(name) == nil {
			f.Fatalf("the cloud serves %s without a codec", name)
		}
	}
	f.Add(0, []byte{})
	f.Add(1, []byte{0x01, 0x61, 0x00, 0x00})
	f.Add(2, bytes.Repeat([]byte{0xff}, 24))
	f.Add(3, []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	// biex.search in its two token shapes: a conjunction answered from pair
	// lists alone (no anchor buckets), and one with two anchor buckets on the
	// shard refined by a negated pair list and a filter.
	k := bytes.Repeat([]byte{0xa5}, 32)
	pair := &emm.SearchToken{AddrKey: k, ValueKey: k, Counts: emm.Counts{Tail: 75}}
	bucket := emm.SearchToken{AddrKey: k, ValueKey: k, Counts: emm.Counts{Packed: 2, Tail: 31}}
	seed := func(i int, codec func(dst []byte, v any) ([]byte, error), v any) {
		enc, err := codec(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(i, enc)
	}
	for i, name := range methods {
		codec := transport.LookupCodec(name)
		switch name {
		case tpaillier.Service + ".setup":
			seed(i, codec.EncodeArgs, &tpaillier.SetupArgs{Schema: "obs", N: k})
		case tsophos.Service + ".setup":
			seed(i, codec.EncodeArgs, &tsophos.SetupArgs{Schema: "obs", PK: ssesophos.PublicKey{N: k, E: 65537}})
		case tdet.Service + ".add", trnd.Service + ".put":
			seed(i, codec.EncodeArgs, &cell.Args{Schema: "obs", Field: "code", CT: k, DocID: "d1"})
		case trnd.Service + ".remove":
			seed(i, codec.EncodeArgs, &cell.Args{Schema: "obs", Field: "performer", DocID: "d1"})
		case cloud.AdminService + ".stats":
			seed(i, codec.EncodeReply, &cloud.StatsReply{
				Namespaces:  map[string]kvstore.NamespaceStats{"emm": {Keys: 3, Items: 9, Bytes: 400}, "aggidx": {Keys: 1, Items: 2, Bytes: -1}},
				Collections: map[string]int{"obs": 60, "": 0},
			})
		}
		if name == tbiex.Service+".insert" {
			// One shard's share of a document insert: global cells, packed
			// pair cells and a filter update (no per-cell pair list — that
			// slot left the codec with the field).
			enc, err := transport.LookupCodec(name).EncodeArgs(nil, &tbiex.InsertArgs{
				Namespace: "obs|2lev", Entries: ssebiex.Entries{
					Global: []emm.Entry{{Addr: k, Val: k}, {Addr: k, Val: k}},
					CrossPacked: []ssebiex.PackedEntry{{Count: 2, AddrLen: 32, ValLen: 32,
						Addrs: append(k[:32:32], k...), Vals: append(k[:32:32], k...), Shared: k, Nonce: k[:12]}},
					Filter: []zmf.UpdateEntry{{Label: k, Positions: []uint64{3, 1 << 40}, Delta: -1}},
				}})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(i, enc)
		}
		if name != tbiex.Service+".search" {
			continue
		}
		for _, conj := range []ssebiex.ConjToken{
			{Constraints: []ssebiex.Constraint{{Cross: pair}, {Cross: pair}}},
			{Anchors: []emm.SearchToken{bucket, bucket}, Constraints: []ssebiex.Constraint{
				{Cross: pair, Negated: true}, {Filter: &zmf.TestToken{Label: k, ProbeKey: k}}}},
		} {
			enc, err := transport.LookupCodec(name).EncodeArgs(nil, &tbiex.SearchArgs{
				Namespace: "obs|2lev", Token: ssebiex.SearchToken{Conjunctions: []ssebiex.ConjToken{conj}}})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(i, enc)
		}
	}

	f.Fuzz(func(t *testing.T, pick int, data []byte) {
		name := methods[abs(pick)%len(methods)]
		codec := transport.LookupCodec(name)
		if codec == nil {
			t.Fatalf("codec %s vanished", name)
		}

		args := codec.NewArgs()
		if codec.DecodeArgs(data, args) == nil {
			enc1, err := codec.EncodeArgs(nil, args)
			if err != nil {
				t.Fatalf("%s: decoded args do not re-encode: %v", name, err)
			}
			args2 := codec.NewArgs()
			if err := codec.DecodeArgs(enc1, args2); err != nil {
				t.Fatalf("%s: re-encoded args do not decode: %v", name, err)
			}
			enc2, err := codec.EncodeArgs(nil, args2)
			if err != nil {
				t.Fatalf("%s: second encode failed: %v", name, err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%s: encode not stable:\n  %x\n  %x", name, enc1, enc2)
			}
		}

		if codec.EncodeReply == nil {
			return
		}
		reply := codec.NewReply()
		if codec.DecodeReply(data, reply) == nil {
			enc1, err := codec.EncodeReply(nil, reply)
			if err != nil {
				t.Fatalf("%s: decoded reply does not re-encode: %v", name, err)
			}
			reply2 := codec.NewReply()
			if err := codec.DecodeReply(enc1, reply2); err != nil {
				t.Fatalf("%s: re-encoded reply does not decode: %v", name, err)
			}
			enc2, err := codec.EncodeReply(nil, reply2)
			if err != nil {
				t.Fatalf("%s: second reply encode failed: %v", name, err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("%s: reply encode not stable:\n  %x\n  %x", name, enc1, enc2)
			}
		}
	})
}

func abs(n int) int {
	if n < 0 {
		if n == -n { // math.MinInt
			return 0
		}
		return -n
	}
	return n
}
