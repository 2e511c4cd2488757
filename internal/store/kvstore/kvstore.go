// Package kvstore implements a Redis-like key-value store with the basic
// constructions DataBlinder tactics build custom secure indexes from:
// strings, hashes and sorted sets. A counter is a string holding an 8-byte
// big-endian integer; a set is a hash whose fields carry empty values. The
// original system deployed Redis "in a semi-persistent durability mode" on
// both the gateway and the cloud; this package provides the same contract
// in-process, backed by the segmented binary write-ahead log in
// internal/store/wal.
//
// All operations are safe for concurrent use. The store is striped into
// independently locked shards (the key hashes to a shard), so concurrent
// server dispatch on different keys does not contend on one lock. A
// persisted mutation claims a store-wide commit sequence while holding its
// shard lock — fixing same-key order — but appends to the log *outside*
// the lock, so readers and same-shard writers never wait behind an fsync.
// Recovery re-orders by sequence within each stripe and replays all
// stripes in parallel.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"datablinder/internal/store/wal"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kvstore: store is closed")

// numShards is the striping factor. Power of two, sized well above typical
// server-dispatch concurrency so shard collisions are rare.
const numShards = 32

// shard is one independently locked slice of the keyspace.
type shard struct {
	mu      sync.RWMutex
	strings map[string][]byte
	hashes  map[string]map[string][]byte
	zsets   map[string][]zentry
}

// Store is an in-memory key-value store with optional WAL persistence.
// The zero value is not usable; construct with New or Open.
type Store struct {
	shards [numShards]shard
	closed atomic.Bool

	// Persistence state (wal nil = in-memory only). seq is claimed under
	// the owning stripe lock; the log append happens after the lock is
	// released, tracked by wg so Close can wait out in-flight appends.
	wal        *wal.Log
	opts       Options
	seq        atomic.Uint64
	wg         sync.WaitGroup
	compacting atomic.Bool
}

// New returns an empty in-memory store with no persistence.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.strings = make(map[string][]byte)
		sh.hashes = make(map[string]map[string][]byte)
		sh.zsets = make(map[string][]zentry)
	}
	return s
}

// shardIndex returns the stripe index owning key (FNV-1a over the bytes).
func shardIndex(key []byte) int {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h % numShards)
}

// shard returns the shard owning key.
func (s *Store) shard(key []byte) *shard {
	return &s.shards[shardIndex(key)]
}

// Set stores value under key.
func (s *Store) Set(key, value []byte) error {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	sh.strings[string(key)] = append([]byte(nil), value...)
	seq, ok := s.claim()
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	return s.log2(seq, opSet, key, value)
}

// Get returns the value for key and whether it exists.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return nil, false, ErrClosed
	}
	v, ok := sh.strings[string(key)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Del removes key whatever it holds: a string, a hash or a sorted set.
func (s *Store) Del(key []byte) error {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	k := string(key)
	delete(sh.strings, k)
	delete(sh.hashes, k)
	delete(sh.zsets, k)
	seq, ok := s.claim()
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	return s.log1(seq, opDel, key)
}

// HSet stores value under (key, field) in a hash map.
func (s *Store) HSet(key, field, value []byte) error {
	_, err := s.hset(key, field, value, false)
	return err
}

// HSetNX stores value under (key, field) only if the field is absent, and
// reports whether it did. Check and write are one step under the key's
// lock; the write logs the frame HSet does, a refusal logs nothing.
func (s *Store) HSetNX(key, field, value []byte) (bool, error) {
	return s.hset(key, field, value, true)
}

func (s *Store) hset(key, field, value []byte, ifAbsent bool) (bool, error) {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false, ErrClosed
	}
	h := sh.hashes[string(key)]
	if _, ok := h[string(field)]; ok && ifAbsent {
		sh.mu.Unlock()
		return false, nil
	}
	if h == nil {
		h = make(map[string][]byte)
		sh.hashes[string(key)] = h
	}
	h[string(field)] = append([]byte(nil), value...)
	seq, ok := s.claim()
	sh.mu.Unlock()
	if !ok {
		return true, nil
	}
	return true, s.log3(seq, opHSet, key, field, value)
}

// HGet returns the value for (key, field) and whether it exists.
func (s *Store) HGet(key, field []byte) ([]byte, bool, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return nil, false, ErrClosed
	}
	v, ok := sh.hashes[string(key)][string(field)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// HMGet returns the values of fields in the hash at key, in field order,
// read under one lock; a missing field's value is nil, a present one's is
// never nil. The values are copies cut from one slab, each capped at its
// own length. The fields are strings because batch readers hold their ids
// as strings, and converting each to []byte would cost a copy.
func (s *Store) HMGet(key []byte, fields []string) ([][]byte, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	h := sh.hashes[string(key)]
	out := make([][]byte, len(fields))
	size := 0
	for i, f := range fields {
		if v, ok := h[f]; ok {
			if v == nil {
				v = []byte{} // an empty value, stored as nil, is still present
			}
			out[i] = v // the store's own bytes until the copy below
			size += len(v)
		}
	}
	slab := make([]byte, size) // non-nil even when size is 0
	for i, v := range out {
		if v != nil {
			n := copy(slab, v)
			out[i], slab = slab[:n:n], slab[n:]
		}
	}
	return out, nil
}

// HDel removes field from the hash at key.
func (s *Store) HDel(key, field []byte) error {
	_, err := s.hdel(key, field, false)
	return err
}

// HRemove removes field from the hash at key and reports whether it was
// there. Check and delete are one step under the key's lock; a removal logs
// the frame HDel does, a miss logs nothing.
func (s *Store) HRemove(key, field []byte) (bool, error) {
	return s.hdel(key, field, true)
}

func (s *Store) hdel(key, field []byte, ifPresent bool) (bool, error) {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return false, ErrClosed
	}
	present := sh.hremove(string(key), string(field))
	if !present && ifPresent {
		sh.mu.Unlock()
		return false, nil
	}
	seq, ok := s.claim()
	sh.mu.Unlock()
	if !ok {
		return present, nil
	}
	return present, s.log2(seq, opHDel, key, field)
}

// hremove deletes field from the hash at k, reporting whether it was there.
// The hash's last field takes its key with it, so an emptied hash is no key,
// as after a snapshot, which writes no frame for it.
func (sh *shard) hremove(k, field string) bool {
	h := sh.hashes[k]
	_, present := h[field]
	delete(h, field)
	if present && len(h) == 0 {
		delete(sh.hashes, k)
	}
	return present
}

// HLen returns the number of fields in the hash at key.
func (s *Store) HLen(key []byte) (int, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	return len(sh.hashes[string(key)]), nil
}

// HFields returns the field names of the hash at key, sorted.
func (s *Store) HFields(key []byte) ([][]byte, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	h := sh.hashes[string(key)]
	names := make([]string, 0, len(h))
	for f := range h {
		names = append(names, f)
	}
	sort.Strings(names)
	out := make([][]byte, len(names))
	for i, f := range names {
		out[i] = []byte(f)
	}
	return out, nil
}

// SAdd adds member to the set at key: a set is a hash whose fields carry
// empty values. Only dblayers' kvstore.sadd_us probe calls it; the
// benchmark-only port of dblayers deletes it.
func (s *Store) SAdd(key, member []byte) error { return s.HSet(key, member, nil) }

// Incr adds delta to the counter at key and returns the new value. A
// counter is a string holding an 8-byte big-endian integer, overwritten in
// place under the key's lock (Get copies, so nothing aliases it); the new
// value is logged as the frame Set writes. An absent key counts from 0; a
// string of any other length is an error.
func (s *Store) Incr(key []byte, delta int64) (int64, error) {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return 0, ErrClosed
	}
	v, ok := sh.strings[string(key)]
	if !ok {
		v = make([]byte, 8)
		sh.strings[string(key)] = v
	} else if len(v) != 8 {
		sh.mu.Unlock()
		return 0, errNotCounter(key, v)
	}
	n := int64(binary.BigEndian.Uint64(v)) + delta
	binary.BigEndian.PutUint64(v, uint64(n))
	var frame [8]byte
	copy(frame[:], v)
	seq, logged := s.claim()
	sh.mu.Unlock()
	if !logged {
		return n, nil
	}
	if err := s.log2(seq, opSet, key, frame[:]); err != nil {
		return 0, err
	}
	return n, nil
}

// Counter returns the current counter value at key (0 if unset).
func (s *Store) Counter(key []byte) (int64, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	v, ok := sh.strings[string(key)]
	if !ok {
		return 0, nil
	}
	if len(v) != 8 {
		return 0, errNotCounter(key, v)
	}
	return int64(binary.BigEndian.Uint64(v)), nil
}

func errNotCounter(key, v []byte) error {
	return fmt.Errorf("kvstore: %q holds %d bytes, not an 8-byte counter", key, len(v))
}

// Keys returns all string keys with the given prefix, sorted. It exists for
// administrative tooling and tests; tactics never enumerate keys.
func (s *Store) Keys(prefix []byte) ([][]byte, error) {
	return sortedKeys(s, prefix, func(sh *shard) map[string][]byte { return sh.strings })
}

// HKeys returns the keys holding hash maps with the given prefix, sorted.
func (s *Store) HKeys(prefix []byte) ([][]byte, error) {
	return sortedKeys(s, prefix, func(sh *shard) map[string]map[string][]byte { return sh.hashes })
}

// sortedKeys lists the keys of one namespace, picked from each shard by of.
func sortedKeys[V any](s *Store, prefix []byte, of func(*shard) map[string]V) ([][]byte, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	var keys []string
	p := string(prefix)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range of(sh) {
			if strings.HasPrefix(k, p) {
				keys = append(keys, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(keys)
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = []byte(k)
	}
	return out, nil
}

// Len returns the total number of top-level keys across all namespaces.
func (s *Store) Len() (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.strings) + len(sh.hashes) + len(sh.zsets)
		sh.mu.RUnlock()
	}
	return n, nil
}

// NamespaceStats summarizes one slice of the keyspace. Namespaces are the
// first '/'-separated segment of the key ("detidx", "mitra", "aggidx", …)
// — exactly how the tactics partition their index structures — so the
// stats read as one row per secure index family.
type NamespaceStats struct {
	// Keys counts top-level keys (strings, hashes, sorted sets).
	Keys int `json:"keys"`
	// Items counts leaf entries: hash fields, sorted-set elements, plus one
	// per string key (a counter is a string).
	Items int `json:"items"`
	// Bytes approximates payload size (keys + stored values).
	Bytes int64 `json:"bytes"`
}

// namespaceOf extracts the stats namespace from a key.
func namespaceOf(k string) string {
	if i := strings.IndexByte(k, '/'); i >= 0 {
		return k[:i]
	}
	return k
}

// Stats reports per-namespace keyspace statistics. The sharding benchmark
// uses it to verify routing spreads each index family evenly across cloud
// nodes; it is also exported over the admin RPC for the -pprof style debug
// surface.
func (s *Store) Stats() (map[string]NamespaceStats, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	out := make(map[string]NamespaceStats)
	add := func(k string, items int, bytes int64) {
		ns := out[namespaceOf(k)]
		ns.Keys++
		ns.Items += items
		ns.Bytes += int64(len(k)) + bytes
		out[namespaceOf(k)] = ns
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.strings {
			add(k, 1, int64(len(v)))
		}
		for k, h := range sh.hashes {
			var b int64
			for f, v := range h {
				b += int64(len(f) + len(v))
			}
			add(k, len(h), b)
		}
		for k, z := range sh.zsets {
			var b int64
			for _, e := range z {
				b += int64(len(e.score) + len(e.member))
			}
			add(k, len(z), b)
		}
		sh.mu.RUnlock()
	}
	return out, nil
}

// Sync forces everything appended so far to stable storage.
func (s *Store) Sync() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("kvstore: sync: %w", err)
	}
	return nil
}

// Close flushes and closes the store. Subsequent operations return
// ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Drain: an operation that passed its closed check claims its commit
	// sequence under its shard lock, so cycling every shard lock waits out
	// all claimants; wg then waits out their in-flight log appends.
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.shards[i].mu.Unlock() //nolint:staticcheck // empty critical section is the drain
	}
	s.wg.Wait()
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Close(); err != nil {
		return fmt.Errorf("kvstore: closing WAL: %w", err)
	}
	return nil
}
