// Package ring implements the gateway's shard router for a sharded cloud
// tier: N independent cloud nodes, each holding a disjoint slice of the
// document store and of every tactic's secure index, fronted by a
// consistent-hash ring with virtual nodes.
//
// Routing keys are stable strings chosen by each call site — the document
// id for the doc service, the token/label prefix for kvstore-backed index
// namespaces — so a posting structure lands deterministically on one shard
// across process restarts, while multi-keyword and range queries
// scatter-gather across all shards (Each) and merge gateway-side.
//
// Placement is a pure function of the shard count and the virtual-node
// count: point i of shard s hashes "shard-<s>/vnode-<i>" onto a 64-bit
// circle. No process state (timestamps, random seeds, pointer values)
// participates, which is what makes key→shard assignment stable across
// restarts — the property the secure indexes depend on.
package ring

import (
	"context"
	"fmt"
	"sort"

	"datablinder/internal/conc"
	"datablinder/internal/transport"
)

// DefaultVirtualNodes is the number of points each shard contributes to
// the circle. Arc lengths concentrate as the point count grows; 256 keeps
// every shard's share of a uniform key space within roughly ±25% of fair
// at small shard counts, without making Shard's binary search noticeable
// (the search is over n*256 points).
const DefaultVirtualNodes = 256

// point is one virtual node on the hash circle.
type point struct {
	hash  uint64
	shard int
}

// Ring maps routing keys onto a fixed set of shard connections. A Ring
// over one connection routes everything to it without hashing, so the
// single-node configuration behaves exactly like an unsharded deployment.
type Ring struct {
	conns  []transport.Conn
	points []point // sorted by hash; empty for single-shard rings
}

// hash64 hashes s with FNV-1a followed by a murmur-style avalanche
// finalizer. Both stages are fixed constants — stable across processes and
// Go versions, unlike the runtime's seeded map hash. The finalizer matters:
// raw FNV-1a over short, near-identical strings ("shard-0/vnode-1",
// "shard-0/vnode-2", ...) leaves enough structure in the high bits to skew
// arc lengths by 3-4x; full avalanche restores uniform placement.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// New builds a ring over conns with vnodes virtual nodes per shard
// (DefaultVirtualNodes if vnodes <= 0). Shard identity is positional: the
// i-th connection is shard i, and placement depends only on (i, vnodes),
// so the same address list always reproduces the same assignment.
func New(conns []transport.Conn, vnodes int) *Ring {
	r := &Ring{conns: conns}
	if len(conns) <= 1 {
		return r
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r.points = make([]point, 0, len(conns)*vnodes)
	for s := range conns {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:  hash64(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// N returns the number of shards.
func (r *Ring) N() int { return len(r.conns) }

// WithConns returns a ring with identical placement (the point array is
// shared, so key→shard assignment and the virtual-node count are exactly
// preserved) but every connection replaced by wrap(shard, conn). It exists
// to interpose per-shard middleware — the gateway's write coalescer —
// without re-deriving placement, which the secure indexes depend on.
func (r *Ring) WithConns(wrap func(shard int, conn transport.Conn) transport.Conn) *Ring {
	conns := make([]transport.Conn, len(r.conns))
	for i, c := range r.conns {
		conns[i] = wrap(i, c)
	}
	return &Ring{conns: conns, points: r.points}
}

// Shard returns the shard index owning key: the first point clockwise of
// the key's hash.
func (r *Ring) Shard(key string) int {
	if len(r.points) == 0 {
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].shard
}

// Conn returns the connection of shard i.
func (r *Ring) Conn(i int) transport.Conn { return r.conns[i] }

// Call routes one RPC to the shard owning key.
func (r *Ring) Call(ctx context.Context, key, service, method string, args, reply any) error {
	return r.conns[r.Shard(key)].Call(ctx, service, method, args, reply)
}

// Each runs f once per shard, concurrently, cancelling the rest on first
// error — the scatter half of scatter-gather. f must write its result into
// per-shard storage (slices indexed by shard); the caller merges after
// Each returns.
func (r *Ring) Each(ctx context.Context, f func(ctx context.Context, shard int, conn transport.Conn) error) error {
	if len(r.conns) == 1 {
		return f(ctx, 0, r.conns[0])
	}
	return conc.ForEach(ctx, len(r.conns), 0, func(gctx context.Context, i int) error {
		return f(gctx, i, r.conns[i])
	})
}

// Broadcast sends the same call to every shard, discarding replies — for
// idempotent provisioning (shipping a tactic's public key) that every
// shard must hold.
func (r *Ring) Broadcast(ctx context.Context, service, method string, args any) error {
	return r.Each(ctx, func(gctx context.Context, _ int, conn transport.Conn) error {
		return conn.Call(gctx, service, method, args, nil)
	})
}

// Split partitions keys by owning shard, preserving each key's index into
// the original slice so gathered results can be reassembled in request
// order. Single-shard rings return one group without hashing.
func (r *Ring) Split(keys []string) map[int][]int {
	groups := make(map[int][]int, len(r.conns))
	if len(r.points) == 0 {
		idx := make([]int, len(keys))
		for i := range keys {
			idx[i] = i
		}
		groups[0] = idx
		return groups
	}
	for i, k := range keys {
		s := r.Shard(k)
		groups[s] = append(groups[s], i)
	}
	return groups
}

// Close closes every shard connection, returning the first error.
func (r *Ring) Close() error {
	var first error
	for _, c := range r.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ringer is implemented by connections that front a ring (Client below).
type ringer interface{ Ring() *Ring }

// Of returns the ring behind conn: the sharded client's own ring when conn
// is one, otherwise a fresh single-shard ring wrapping conn. The engine
// calls Of once at construction, routes uniformly from then on and hands
// the ring to its tactics; on an unsharded connection every helper
// degenerates to a direct call, so single-node behavior is unchanged.
func Of(conn transport.Conn) *Ring {
	if r, ok := conn.(ringer); ok {
		return r.Ring()
	}
	return &Ring{conns: []transport.Conn{conn}}
}

// Client is the transport.Conn through which a sharded cloud tier reaches
// the engine's Config. Direct Call is only legal with a single shard (there
// is no routing key); every sharded call site must go through Of(...).Call /
// Each / Split. A loud error here means a call site was missed during the
// single-node → ring conversion, which the sharded e2e test exercises.
type Client struct {
	ring *Ring
}

// NewClient builds a sharded connection over conns (positional shard
// identity) with vnodes virtual nodes per shard.
func NewClient(conns []transport.Conn, vnodes int) *Client {
	return &Client{ring: New(conns, vnodes)}
}

// Ring exposes the routing view (the Of hook).
func (c *Client) Ring() *Ring { return c.ring }

// Call implements transport.Conn. With one shard it forwards directly;
// with several it refuses, because a keyless call cannot be routed.
func (c *Client) Call(ctx context.Context, service, method string, args, reply any) error {
	if c.ring.N() == 1 {
		return c.ring.Conn(0).Call(ctx, service, method, args, reply)
	}
	return fmt.Errorf("ring: %s.%s called without a routing key on a %d-shard connection", service, method, c.ring.N())
}

// Close implements transport.Conn.
func (c *Client) Close() error { return c.ring.Close() }

// Merge k-way merges lists, each ascending under cmp, into one ascending
// slice, dropping an element that compares equal to the one before it.
// Shards hold disjoint key sets, so duplicates only occur when a caller
// merges overlapping pages. A single list comes back as it is.
func Merge[T any](lists [][]T, cmp func(a, b T) int) []T {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]T, 0, n)
	pos := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if pos[i] < len(l) && (best < 0 || cmp(l[pos[i]], lists[best][pos[best]]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		v := lists[best][pos[best]]
		pos[best]++
		if len(out) == 0 || cmp(out[len(out)-1], v) != 0 {
			out = append(out, v)
		}
	}
}

var _ transport.Conn = (*Client)(nil)
