// Command cloudserver runs DataBlinder's untrusted-zone node: one store
// holding the encrypted documents and the tactic indexes, and the cloud
// halves of every tactic protocol, served over the binary RPC transport
// (internal/transport).
//
// Usage:
//
//	cloudserver -listen 127.0.0.1:7700 [-shards 4] [-data ./cloud-data] [-fsync always|interval|never] [-pprof addr] [-max-inflight N]
//
// With -data, the store persists under <data>/index through a segmented
// binary write-ahead log with group-committed fsync and background
// snapshot compaction; -fsync picks the durability policy (default
// "interval": at most the last second of writes is lost to a crash).
// A data directory that still holds <data>/docs, where an earlier build
// kept the documents apart, fails start-up with its files untouched.
//
// With -shards N (N > 1), the process hosts N independent cloud nodes —
// disjoint stores, one listener each — on consecutive ports starting at
// -listen's port. Shard i persists under <data>/shard-<i>. This is the
// single-machine way to stand up a sharded tier; production deployments
// run one cloudserver per machine and list every address in the gateway's
// -shard-addrs flag instead.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"

	"datablinder/internal/cloud"
	"datablinder/internal/pprofserve"
	"datablinder/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7700", "address to serve the gateway RPC protocol on (with -shards N, the first of N consecutive ports)")
	shards := flag.Int("shards", 1, "number of independent cloud nodes to host (consecutive ports from -listen)")
	dataDir := flag.String("data", "", "persistence directory (empty = in-memory only)")
	fsync := flag.String("fsync", "interval", "WAL durability policy: always (fsync per write, group-committed), interval (1s background), never")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	maxInFlight := flag.Int("max-inflight", transport.DefaultMaxInFlight, "server-wide cap on concurrently executing RPCs, across all connections (a gateway batch, merged or not, counts as one)")
	flag.Parse()

	stopPprof, err := pprofserve.Start(*pprofAddr)
	if err != nil {
		log.Fatalf("cloudserver: pprof: %v", err)
	}
	defer stopPprof()

	if err := run(*listen, *shards, *dataDir, *fsync, *maxInFlight); err != nil {
		log.Fatalf("cloudserver: %v", err)
	}
}

// shardAddrs expands a base listen address into n consecutive-port
// addresses (shard i listens on port+i).
func shardAddrs(listen string, n int) ([]string, error) {
	if n <= 1 {
		return []string{listen}, nil
	}
	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		return nil, fmt.Errorf("parsing -listen: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("parsing -listen port: %w", err)
	}
	if port == 0 {
		return nil, fmt.Errorf("-shards > 1 needs an explicit base port, not :0")
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	return addrs, nil
}

// storePaths returns the store directory of each of n shards under dataDir
// (all empty without one). A shard directory holding docs, the documents'
// old store, is refused before any store opens, leaving its files as they are.
func storePaths(dataDir string, n int) ([]string, error) {
	paths := make([]string, n)
	if dataDir == "" {
		return paths, nil
	}
	for i := range paths {
		dir := dataDir
		if n > 1 {
			dir = filepath.Join(dataDir, fmt.Sprintf("shard-%d", i))
		}
		old := filepath.Join(dir, "docs")
		if _, err := os.Lstat(old); err == nil {
			return nil, fmt.Errorf("%s holds documents in the old two-store layout; there is no migration, start from a fresh -data directory", old)
		}
		paths[i] = filepath.Join(dir, "index")
	}
	return paths, nil
}

func run(listen string, shards int, dataDir, fsync string, maxInFlight int) error {
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1 (got %d)", shards)
	}
	addrs, err := shardAddrs(listen, shards)
	if err != nil {
		return err
	}
	paths, err := storePaths(dataDir, shards)
	if err != nil {
		return err
	}
	for i, shardAddr := range addrs {
		node, err := cloud.NewNode(cloud.Options{KVPath: paths[i], FsyncPolicy: fsync})
		if err != nil {
			return err
		}
		defer node.Close()

		srv := transport.NewServer(node.Mux)
		srv.MaxInFlight = maxInFlight
		addr, err := srv.Listen(shardAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		log.Printf("cloudserver: shard %d/%d serving %d RPC methods on %s (persistence: %v)",
			i+1, shards, len(node.Mux.Services()), addr, dataDir != "")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("cloudserver: shutting down")
	return nil
}
