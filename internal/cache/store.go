package cache

import (
	"errors"
	"fmt"
	"sync"
)

// ErrTooLarge is returned by Put when a value cannot fit in the cache even
// after evicting everything else.
var ErrTooLarge = errors.New("cache: value larger than capacity")

// Entry is a resident cache item's metadata. Returned copies are
// snapshots; the cached value itself is never aliased to callers.
type Entry struct {
	Size int64
	Cost float64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Insertions uint64
	Evictions  uint64
	BytesUsed  int64
	Entries    int
}

// HitRatio reports Hits/(Hits+Misses), or 0 with no traffic.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Store is one stripe of the ShardedStore: a thread-safe byte-capacity
// cache with pluggable eviction. Values are the serialised IC results
// (recognition labels, loaded 3D models, panoramic frames).
type Store struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*storeEntry
	policy   Policy
	stats    Stats
}

type storeEntry struct {
	value []byte
	meta  Entry
}

// NewStore builds a cache holding at most capacity bytes, evicting with
// policy. It panics on non-positive capacity or nil policy — both are
// construction bugs.
func NewStore(capacity int64, policy Policy) *Store {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: non-positive capacity %d", capacity))
	}
	if policy == nil {
		panic("cache: nil policy")
	}
	return &Store{
		capacity: capacity,
		entries:  map[string]*storeEntry{},
		policy:   policy,
	}
}

// Get returns a copy of the value cached under key. A resident value is
// never written, so the copy is taken outside the lock.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.policy.OnAccess(key)
	s.stats.Hits++
	s.mu.Unlock()
	return append([]byte(nil), e.value...), true
}

// Put caches value under key with a recomputation-cost hint (used by
// cost-aware policies; pass 1 when indifferent) and returns the keys it
// evicted to make room. The value is copied. Putting over an existing key
// replaces it, which is not an eviction. Returns ErrTooLarge, and changes
// nothing, when the value exceeds total capacity.
func (s *Store) Put(key string, value []byte, cost float64) (evicted []string, err error) {
	size := int64(len(value))
	if size > s.capacity {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, size, s.capacity)
	}
	stored := append([]byte(nil), value...) // copied before locking
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		s.removeLocked(key)
	}
	for s.used+size > s.capacity {
		victim, ok := s.policy.Victim()
		if !ok {
			// Impossible while accounting is consistent: used > 0 implies
			// a resident entry the policy knows about.
			panic("cache: accounting out of sync with policy")
		}
		s.removeLocked(victim)
		s.stats.Evictions++
		evicted = append(evicted, victim)
	}
	s.entries[key] = &storeEntry{value: stored, meta: Entry{Size: size, Cost: cost}}
	s.used += size
	s.policy.OnInsert(key, size, cost)
	s.stats.Insertions++
	return evicted, nil
}

// removeLocked detaches key from entries, accounting and policy. Caller
// holds s.mu.
func (s *Store) removeLocked(key string) {
	e := s.entries[key]
	s.used -= e.meta.Size
	delete(s.entries, key)
	s.policy.OnRemove(key)
}

// Stats returns a counter snapshot (BytesUsed and Entries filled in).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.BytesUsed = s.used
	st.Entries = len(s.entries)
	return st
}

// Meta returns a snapshot of the entry's metadata without counting a hit
// or touching the policy; ok reports whether key is resident.
func (s *Store) Meta(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return Entry{}, false
	}
	return e.meta, true
}
