// Package cloud assembles DataBlinder's untrusted-zone deployment (paper
// Fig. 3/4): the document store holding whole-document ciphertexts, the
// key-value store backing every tactic's secure indexes, and the RPC
// services — the cloud halves of all tactics plus the document service.
//
// Nothing in this process ever sees a decryption key: it stores opaque
// blobs and executes token-driven index protocols.
package cloud

import (
	"context"
	"errors"
	"fmt"

	"datablinder/internal/store/docstore"
	"datablinder/internal/store/kvstore"
	"datablinder/internal/store/wal"
	"datablinder/internal/tactics"
	"datablinder/internal/transport"
)

// DocService is the RPC service name of the encrypted document store.
const DocService = "doc"

// Document service payloads.
type (
	// DocPutArgs stores a document blob.
	DocPutArgs struct {
		Collection string `json:"collection"`
		ID         string `json:"id"`
		Blob       []byte `json:"blob"`
		// IfAbsent makes the call fail when the id already exists
		// (insert semantics); otherwise it overwrites (update semantics).
		IfAbsent bool `json:"if_absent,omitempty"`
	}
	// DocGetArgs fetches one blob.
	DocGetArgs struct {
		Collection string `json:"collection"`
		ID         string `json:"id"`
	}
	// DocGetReply is one blob.
	DocGetReply struct {
		Blob []byte `json:"blob"`
	}
	// DocGetManyArgs fetches several blobs.
	DocGetManyArgs struct {
		Collection string   `json:"collection"`
		IDs        []string `json:"ids"`
	}
	// DocGetManyReply preserves request order, skipping missing ids.
	DocGetManyReply struct {
		Records []docstore.Record `json:"records"`
	}
	// DocDeleteArgs removes one document.
	DocDeleteArgs struct {
		Collection string `json:"collection"`
		ID         string `json:"id"`
	}
	// DocScanArgs pages through a collection in id order.
	DocScanArgs struct {
		Collection string `json:"collection"`
		After      string `json:"after"`
		Limit      int    `json:"limit"`
	}
	// DocScanReply is one page.
	DocScanReply struct {
		Records []docstore.Record `json:"records"`
	}
	// DocCountArgs counts a collection.
	DocCountArgs struct {
		Collection string `json:"collection"`
	}
	// DocCountReply is the collection size.
	DocCountReply struct {
		Count int `json:"count"`
	}
)

// AdminService is the RPC service name of the node-introspection surface.
const AdminService = "admin"

// StatsArgs is admin.stats' empty argument; callers pass nil.
type StatsArgs struct{}

// StatsReply reports one node's storage footprint: per-namespace index
// statistics and per-collection document counts. The sharded end-to-end
// test gathers it from every shard to check that documents and BIEX index
// keys spread over the shards; operators can hit it next to -pprof.
type StatsReply struct {
	Namespaces  map[string]kvstore.NamespaceStats `json:"namespaces"`
	Collections map[string]int                    `json:"collections"`
}

// Options configures a cloud node.
type Options struct {
	// KVPath enables WAL persistence for the index store (a directory of
	// log segments).
	KVPath string
	// DocDir enables WAL persistence for the document store (a kvstore
	// directory like KVPath).
	DocDir string
	// FsyncPolicy selects log durability for both stores: "always",
	// "interval" (default), or "never".
	FsyncPolicy string
}

// Node is one cloud deployment: stores plus a ready-to-serve mux.
type Node struct {
	KV   *kvstore.Store
	Docs *docstore.Store
	Mux  *transport.Mux
}

// NewNode builds a cloud node with all tactic cloud halves registered.
func NewNode(opts Options) (*Node, error) {
	fsync, err := wal.ParsePolicy(opts.FsyncPolicy)
	if err != nil {
		return nil, fmt.Errorf("cloud: %w", err)
	}
	// Both stores are kvstores, in memory unless given a directory.
	open := func(dir string) (*kvstore.Store, error) {
		if dir == "" {
			return kvstore.New(), nil
		}
		return kvstore.Open(dir, kvstore.Options{Fsync: fsync})
	}
	kv, err := open(opts.KVPath)
	if err != nil {
		return nil, fmt.Errorf("cloud: opening kv store: %w", err)
	}
	docKV, err := open(opts.DocDir)
	if err != nil {
		kv.Close()
		return nil, fmt.Errorf("cloud: opening doc store: %w", err)
	}
	docs := docstore.Over(docKV)

	mux := transport.NewMux()
	tactics.RegisterCloud(mux, kv)
	registerDocService(mux, docs)
	registerAdminService(mux, kv, docs)
	return &Node{KV: kv, Docs: docs, Mux: mux}, nil
}

func registerAdminService(mux *transport.Mux, kv *kvstore.Store, docs *docstore.Store) {
	transport.HandleTyped(mux, AdminService, "stats", func(_ context.Context, _ *StatsArgs) (any, error) {
		ns, err := kv.Stats()
		if err != nil {
			return nil, err
		}
		cols := make(map[string]int)
		names, err := docs.Collections()
		if err != nil {
			return nil, err
		}
		for _, col := range names {
			n, err := docs.Count(col)
			if err != nil {
				return nil, err
			}
			cols[col] = n
		}
		return StatsReply{Namespaces: ns, Collections: cols}, nil
	})
}

// Close flushes and closes both stores.
func (n *Node) Close() error {
	kvErr := n.KV.Close()
	docErr := n.Docs.Close()
	if kvErr != nil {
		return kvErr
	}
	return docErr
}

// coded maps the doc store's sentinel errors to structured transport
// codes, so gateways branch on codes instead of message substrings.
func coded(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, docstore.ErrNotFound):
		return transport.WithCode(err, transport.CodeNotFound)
	case errors.Is(err, docstore.ErrExists):
		return transport.WithCode(err, transport.CodeAlreadyExists)
	}
	return err
}

func registerDocService(mux *transport.Mux, docs *docstore.Store) {
	transport.HandleTyped(mux, DocService, "put", func(_ context.Context, in *DocPutArgs) (any, error) {
		if in.IfAbsent {
			return nil, coded(docs.Insert(in.Collection, in.ID, in.Blob))
		}
		return nil, docs.Put(in.Collection, in.ID, in.Blob)
	})
	transport.HandleTyped(mux, DocService, "get", func(_ context.Context, in *DocGetArgs) (any, error) {
		blob, err := docs.Get(in.Collection, in.ID)
		if err != nil {
			return nil, coded(err)
		}
		return &DocGetReply{Blob: blob}, nil
	})
	transport.HandleTyped(mux, DocService, "getmany", func(_ context.Context, in *DocGetManyArgs) (any, error) {
		recs, err := docs.GetMany(in.Collection, in.IDs)
		if err != nil {
			return nil, err
		}
		return &DocGetManyReply{Records: recs}, nil
	})
	transport.HandleTyped(mux, DocService, "delete", func(_ context.Context, in *DocDeleteArgs) (any, error) {
		return nil, coded(docs.Delete(in.Collection, in.ID))
	})
	transport.HandleTyped(mux, DocService, "scan", func(_ context.Context, in *DocScanArgs) (any, error) {
		recs, err := docs.Scan(in.Collection, in.After, in.Limit)
		if err != nil {
			return nil, err
		}
		return &DocScanReply{Records: recs}, nil
	})
	transport.HandleTyped(mux, DocService, "count", func(_ context.Context, in *DocCountArgs) (any, error) {
		n, err := docs.Count(in.Collection)
		if err != nil {
			return nil, err
		}
		return &DocCountReply{Count: n}, nil
	})
}
