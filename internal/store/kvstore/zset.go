package kvstore

import (
	"bytes"
	"sort"
)

// zentry is one sorted-set element: ordered by (score, member).
type zentry struct {
	score  []byte
	member []byte
}

// zless orders entries lexicographically by score, then member.
func zless(a, b zentry) bool {
	if c := bytes.Compare(a.score, b.score); c != 0 {
		return c < 0
	}
	return bytes.Compare(a.member, b.member) < 0
}

// zfind returns the insertion index of e and whether an equal entry exists.
func zfind(z []zentry, e zentry) (int, bool) {
	i := sort.Search(len(z), func(i int) bool { return !zless(z[i], e) })
	if i < len(z) && bytes.Equal(z[i].score, e.score) && bytes.Equal(z[i].member, e.member) {
		return i, true
	}
	return i, false
}

// zinsert adds (score, member) to the sorted set at k, reporting whether
// the set changed. The slices are stored as given; callers copy if needed.
func (sh *shard) zinsert(k string, score, member []byte) bool {
	e := zentry{score: score, member: member}
	z := sh.zsets[k]
	i, exists := zfind(z, e)
	if exists {
		return false
	}
	z = append(z, zentry{})
	copy(z[i+1:], z[i:])
	z[i] = e
	sh.zsets[k] = z
	return true
}

// zremove deletes (score, member) from the sorted set at k, reporting
// whether an entry was removed. The set's last member takes its key with it.
func (sh *shard) zremove(k string, score, member []byte) bool {
	z := sh.zsets[k]
	i, exists := zfind(z, zentry{score: score, member: member})
	if !exists {
		return false
	}
	if len(z) == 1 {
		delete(sh.zsets, k)
		return true
	}
	sh.zsets[k] = append(z[:i], z[i+1:]...)
	return true
}

// ZAdd inserts (score, member) into the sorted set at key. Scores order
// lexicographically — fixed-width big-endian encodings (like OPE
// ciphertexts) therefore order numerically. Duplicate (score, member)
// pairs are ignored.
func (s *Store) ZAdd(key, score, member []byte) error {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	changed := sh.zinsert(string(key),
		append([]byte(nil), score...), append([]byte(nil), member...))
	var seq uint64
	ok := false
	if changed {
		seq, ok = s.claim()
	}
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	return s.log3(seq, opZAdd, key, score, member)
}

// ZRem removes (score, member) from the sorted set at key.
func (s *Store) ZRem(key, score, member []byte) error {
	sh := s.shard(key)
	sh.mu.Lock()
	if s.closed.Load() {
		sh.mu.Unlock()
		return ErrClosed
	}
	changed := sh.zremove(string(key), score, member)
	var seq uint64
	ok := false
	if changed {
		seq, ok = s.claim()
	}
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	return s.log3(seq, opZRem, key, score, member)
}

// ZPair is one (score, member) element returned by range queries.
type ZPair struct {
	Score  []byte
	Member []byte
}

// ZRangeByScore returns the elements whose score lies between lo and hi.
// Nil bounds are unbounded; inclusivity is per bound.
func (s *Store) ZRangeByScore(key, lo, hi []byte, loInc, hiInc bool) ([]ZPair, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	z := sh.zsets[string(key)]
	start := 0
	if lo != nil {
		start = sort.Search(len(z), func(i int) bool {
			c := bytes.Compare(z[i].score, lo)
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(z)
	if hi != nil {
		end = sort.Search(len(z), func(i int) bool {
			c := bytes.Compare(z[i].score, hi)
			if hiInc {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil, nil
	}
	out := make([]ZPair, 0, end-start)
	for _, e := range z[start:end] {
		out = append(out, ZPair{
			Score:  append([]byte(nil), e.score...),
			Member: append([]byte(nil), e.member...),
		})
	}
	return out, nil
}

// ZCard returns the cardinality of the sorted set at key.
func (s *Store) ZCard(key []byte) (int, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	return len(sh.zsets[string(key)]), nil
}
