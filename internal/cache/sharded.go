package cache

import (
	"fmt"
	"hash/maphash"
)

// shardSeed makes the key→shard mapping stable across all ShardedStores
// in a process while remaining unpredictable across processes, so tests
// cannot accidentally depend on a particular placement.
var shardSeed = maphash.MakeSeed()

// maxStripes and minStripeBytes pick a SimilarityCache's stripe count
// from its capacity. Eight stripes keep the default 256 MB edge at 32 MB
// per stripe, above the largest cacheable value, the 15 MB scene model.
// A stripe is an eviction domain and must comfortably hold the largest
// values, so smaller caches halve the stripe count until each stripe
// holds at least 16 MB, down to one.
const (
	maxStripes     = 8
	minStripeBytes = 16 << 20
)

// stripesFor picks the stripe count for a cache of the given capacity.
func stripesFor(capacity int64) int {
	stripes := maxStripes
	for stripes > 1 && capacity/int64(stripes) < minStripeBytes {
		stripes /= 2
	}
	return stripes
}

// ShardedStore is the SimilarityCache's value store: the keyspace striped
// over independent Stores, so concurrent requests touching different
// keys proceed without contending on one mutex. The TCP edge serves each
// connection with its own workers, and federated peers probe the same
// cache, so a single store mutex would serialise every request. Each
// stripe owns capacity/N bytes and its own eviction policy instance;
// eviction is therefore stripe-local (an insert evicts within its own
// stripe), which approximates global policy order in exchange for lock
// independence — the trade every striped cache makes. A cache small
// enough for one stripe evicts in exact global policy order.
type ShardedStore struct {
	shards   []*Store
	capacity int64
}

// NewSharded builds a store of `shards` stripes sharing `capacity` bytes,
// each stripe evicting with its own policy from policyFor. It panics on
// non-positive shard counts, nil factories or capacities too small to
// give every stripe at least one byte — all construction bugs, matching
// NewStore.
func NewSharded(capacity int64, shards int, policyFor func() Policy) *ShardedStore {
	if shards <= 0 {
		panic(fmt.Sprintf("cache: non-positive shard count %d", shards))
	}
	if policyFor == nil {
		panic("cache: nil policy factory")
	}
	per := capacity / int64(shards)
	if per <= 0 {
		panic(fmt.Sprintf("cache: capacity %d cannot cover %d shards", capacity, shards))
	}
	s := &ShardedStore{capacity: per * int64(shards)}
	for i := 0; i < shards; i++ {
		s.shards = append(s.shards, NewStore(per, policyFor()))
	}
	return s
}

func (s *ShardedStore) shard(key string) *Store {
	return s.shards[maphash.String(shardSeed, key)%uint64(len(s.shards))]
}

// Get returns a copy of the value cached under key.
func (s *ShardedStore) Get(key string) ([]byte, bool) { return s.shard(key).Get(key) }

// Put caches value under key in its stripe and returns the keys the
// stripe evicted. Values larger than a single stripe (capacity/shards
// bytes) return ErrTooLarge even though the aggregate capacity could hold
// them: a stripe is the eviction domain.
func (s *ShardedStore) Put(key string, value []byte, cost float64) ([]string, error) {
	return s.shard(key).Put(key, value, cost)
}

// Meta returns a snapshot of the entry's metadata without counting a hit
// or touching the policy; ok reports whether key is resident.
func (s *ShardedStore) Meta(key string) (Entry, bool) { return s.shard(key).Meta(key) }

// Capacity reports the aggregate byte capacity (shards × stripe size).
func (s *ShardedStore) Capacity() int64 { return s.capacity }

// Stats aggregates counter snapshots across stripes. Counters from
// different stripes are read at slightly different instants; under
// concurrent traffic the aggregate is a consistent-enough snapshot for
// metrics, not an atomic cut.
func (s *ShardedStore) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Insertions += st.Insertions
		out.Evictions += st.Evictions
		out.BytesUsed += st.BytesUsed
		out.Entries += st.Entries
	}
	return out
}
