package cache

import (
	"errors"
	"sort"
	"sync"

	"github.com/edge-immersion/coic/internal/feature"
)

// DefaultOwner is the tenant every untagged insert and lookup is
// accounted to; it matches the servers' default tenant so single-tenant
// deployments see all residency under one label.
const DefaultOwner = "default"

// ErrTenantShare rejects an insert that would push its tenant past the
// configured byte share. The request already has its answer — the value
// is served through uncached — and other tenants' residency is untouched
// (a tenant can exhaust its own share, never evict a neighbour's).
var ErrTenantShare = errors.New("cache: tenant byte share exhausted")

// Outcome classifies a SimilarityCache lookup for metrics.
type Outcome int

// Lookup outcomes.
const (
	// OutcomeMiss: no cached result is usable.
	OutcomeMiss Outcome = iota
	// OutcomeExact: descriptor key matched byte-for-byte (hash
	// descriptors, or an identical feature vector).
	OutcomeExact
	// OutcomeSimilar: a vector descriptor matched within the distance
	// threshold — the cross-user redundancy CoIC is built around.
	OutcomeSimilar
)

// String names the outcome for experiment output.
func (o Outcome) String() string {
	switch o {
	case OutcomeExact:
		return "exact"
	case OutcomeSimilar:
		return "similar"
	default:
		return "miss"
	}
}

// LookupResult describes how a lookup resolved.
type LookupResult struct {
	Outcome Outcome
	// Distance is the descriptor distance for OutcomeSimilar (0 for
	// exact hits, undefined for misses).
	Distance float64
	// Key is the store key of the matched entry on hits (the queried
	// descriptor's own key for exact hits, the neighbour's for similar
	// hits). Callers use it to attach per-entry metadata, e.g. the
	// privacy gate's contributor sets.
	Key string
}

// Hit reports whether a cached value was returned.
func (r LookupResult) Hit() bool { return r.Outcome != OutcomeMiss }

// SimilarityCache is the edge IC cache of the paper's Figure 1: a value
// store keyed by feature descriptor, where vector descriptors also match
// approximately. "If the distance between the new feature descriptor and
// another one in the cache is under a certain threshold, CoIC determines
// that the computation result is already in the cache."
//
// Lock order is sc.settling, then sc.mu, then a store stripe's lock or
// the index's lock; neither the store nor the index calls back into the
// cache.
type SimilarityCache struct {
	store     *ShardedStore
	index     feature.Index
	threshold float64

	// settling spans each insert from reserve to commit: inserts hold it
	// shared, and a walk over residency (Snapshot, ForEachResident) holds
	// it exclusively while it lists the registered keys. So a walk sees
	// every entry whose put finished before it began, even one a lookup
	// can already read but whose commit had not yet run.
	settling sync.RWMutex

	mu sync.Mutex
	// resident registers every key the store holds: an insert's commit
	// and the commit that processes an eviction both set a key's
	// registration from the store's residency under mu, so at quiescence
	// resident and keys name exactly the store's keys and the index holds
	// exactly their vectors.
	resident map[string]residentEntry
	keys     map[uint64]string // vector id -> store key
	nextID   uint64

	// Logical query counters. The store's own Stats count raw store
	// operations (a similarity hit shows up there as one miss plus one
	// hit); these count one outcome per Lookup, which is what experiment
	// hit ratios are computed from.
	queries  uint64
	exactHit uint64
	simHits  uint64

	// Tenant accounting. caps bound a tenant's resident bytes (0 =
	// unbounded); tenants holds the per-tenant counters. A tenant may
	// *hit* on any tenant's entry — cross-tenant reuse is the point of the
	// shared cache — but only its own inserts charge its share.
	caps    map[string]int64
	tenants map[string]*tenantCacheStats
}

// residentEntry is what the cache keeps beside a resident store entry.
type residentEntry struct {
	desc  []byte // marshalled descriptor, for Snapshot and ForEachResident
	owner string // the tenant charged for the entry
	size  int64  // the bytes charged
	id    uint64 // vector index id; 0 for hash descriptors
}

// tenantCacheStats is the mutable per-tenant ledger (under sc.mu). bytes
// includes the reservations of inserts not yet committed.
type tenantCacheStats struct {
	queries  uint64
	hits     uint64
	inserts  uint64
	rejected uint64
	evicted  uint64
	bytes    int64
}

// TenantCacheStats is one tenant's cache ledger as exposed by
// StatsSnapshot. Hits count the tenant's lookups that resolved from the
// cache regardless of which tenant inserted the entry; Evicted counts
// the tenant's own entries dropped from residency; Rejected counts
// inserts refused because the tenant's byte share was exhausted. Bytes
// includes the bytes reserved by the tenant's inserts still in progress.
type TenantCacheStats struct {
	Queries  uint64
	Hits     uint64
	Inserts  uint64
	Rejected uint64
	Evicted  uint64
	Bytes    int64
	CapBytes int64
}

// SimilarityConfig assembles a SimilarityCache.
type SimilarityConfig struct {
	// Capacity is the byte budget of the store. It also sets the stripe
	// count: 8, halved until each stripe holds at least 16 MB.
	Capacity int64
	// Policy builds each stripe's eviction policy (NewLRU when nil).
	Policy func() Policy
	// Index matches vector descriptors (feature.NewLinear() when nil).
	Index feature.Index
	// Threshold is the maximum L2 distance at which two unit-norm
	// descriptors are treated as the same computation.
	Threshold float64
}

// NewSimilarity builds the cache over a ShardedStore striped by capacity.
func NewSimilarity(cfg SimilarityConfig) *SimilarityCache {
	if cfg.Policy == nil {
		cfg.Policy = NewLRU
	}
	if cfg.Index == nil {
		cfg.Index = feature.NewLinear()
	}
	return &SimilarityCache{
		store:     NewSharded(cfg.Capacity, stripesFor(cfg.Capacity), cfg.Policy),
		index:     cfg.Index,
		threshold: cfg.Threshold,
		resident:  map[string]residentEntry{},
		keys:      map[uint64]string{},
		caps:      map[string]int64{},
		tenants:   map[string]*tenantCacheStats{},
	}
}

// tenantStatsLocked returns tenant's ledger, creating it on first touch.
// Callers hold sc.mu.
func (sc *SimilarityCache) tenantStatsLocked(tenant string) *tenantCacheStats {
	ts := sc.tenants[tenant]
	if ts == nil {
		ts = &tenantCacheStats{}
		sc.tenants[tenant] = ts
	}
	return ts
}

// SetTenantCap bounds tenant's resident bytes; 0 removes the bound.
// Already-resident bytes are never evicted by a new cap — it gates
// future inserts only.
func (sc *SimilarityCache) SetTenantCap(tenant string, capBytes int64) {
	if tenant == "" {
		tenant = DefaultOwner
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if capBytes <= 0 {
		delete(sc.caps, tenant)
		return
	}
	sc.caps[tenant] = capBytes
}

// unregisterLocked forgets key's registration: its owner's bytes are
// released, counted as an eviction when evicted, and its vector leaves
// the index. Callers hold sc.mu.
func (sc *SimilarityCache) unregisterLocked(key string, evicted bool) {
	r, ok := sc.resident[key]
	if !ok {
		return
	}
	delete(sc.resident, key)
	ts := sc.tenantStatsLocked(r.owner)
	ts.bytes -= r.size
	if evicted {
		ts.evicted++
	}
	if r.id != 0 {
		delete(sc.keys, r.id)
		sc.index.Remove(r.id)
	}
}

// Lookup resolves a descriptor to a cached value under the default
// tenant. Exact key matches win; vector descriptors then fall back to
// nearest-neighbour search within the threshold. The value is lent, as
// LookupAs says.
func (sc *SimilarityCache) Lookup(desc feature.Descriptor) ([]byte, LookupResult) {
	return sc.LookupAs(DefaultOwner, desc)
}

// LookupAs is Lookup with the querying tenant named for accounting; the
// match itself is tenant-blind (any tenant's entry can answer — the
// cross-tenant reuse the shared cache exists for). It takes sc.mu once on
// an exact hit and on every miss, and twice on a similar hit: once to
// count the query and resolve the neighbour's key, once to count the hit.
//
// A hit's value is the resident bytes themselves (Store.Get), not a copy:
// read-only, with its capacity clipped to its length. The caller copies
// what it keeps, and writes none of it.
func (sc *SimilarityCache) LookupAs(tenant string, desc feature.Descriptor) ([]byte, LookupResult) {
	if tenant == "" {
		tenant = DefaultOwner
	}
	key := desc.Key()
	if v, ok := sc.store.Get(key); ok {
		sc.mu.Lock()
		sc.queries++
		sc.exactHit++
		ts := sc.tenantStatsLocked(tenant)
		ts.queries++
		ts.hits++
		sc.mu.Unlock()
		return v, LookupResult{Outcome: OutcomeExact, Key: key}
	}
	var (
		id    uint64
		dist  float64
		found bool
	)
	if desc.Kind == feature.KindVector {
		id, dist, found = sc.index.Nearest(desc.Vec)
		found = found && dist <= sc.threshold
	}
	var match string
	sc.mu.Lock()
	sc.queries++
	sc.tenantStatsLocked(tenant).queries++
	if found {
		match, found = sc.keys[id]
	}
	sc.mu.Unlock()
	if !found {
		return nil, LookupResult{Outcome: OutcomeMiss}
	}
	v, ok := sc.store.Get(match)
	if !ok {
		// Entry raced out between index lookup and fetch; treat as miss.
		return nil, LookupResult{Outcome: OutcomeMiss}
	}
	sc.mu.Lock()
	sc.simHits++
	sc.tenantStatsLocked(tenant).hits++
	sc.mu.Unlock()
	return v, LookupResult{Outcome: OutcomeSimilar, Distance: dist, Key: match}
}

// Insert caches value under the descriptor with a recomputation-cost hint
// for cost-aware policies, accounted to the default tenant. Vector
// descriptors are also registered in the similarity index. Returns
// ErrTooLarge when the value can never fit.
func (sc *SimilarityCache) Insert(desc feature.Descriptor, value []byte, cost float64) error {
	return sc.InsertAs(DefaultOwner, desc, value, cost)
}

// InsertAs is Insert with the entry charged against tenant's byte share.
// A tenant at its configured cap gets ErrTenantShare — the value serves
// through uncached and no other tenant's residency is disturbed.
//
// It takes sc.mu twice. The reserve pass checks the cap and charges the
// value's bytes in one critical section, so concurrent inserts cannot all
// pass the check before any is charged. The store put runs unlocked. The
// commit pass turns the reservation into the entry's registration and
// unregisters whatever the put evicted, moving the index with them.
func (sc *SimilarityCache) InsertAs(tenant string, desc feature.Descriptor, value []byte, cost float64) error {
	if tenant == "" {
		tenant = DefaultOwner
	}
	key := desc.Key()
	descBytes, err := desc.Marshal()
	if err != nil {
		return err
	}
	size := int64(len(value))
	sc.settling.RLock()
	defer sc.settling.RUnlock()

	sc.mu.Lock()
	ts := sc.tenantStatsLocked(tenant)
	if capBytes, capped := sc.caps[tenant]; capped {
		projected := ts.bytes + size
		if r, ok := sc.resident[key]; ok && r.owner == tenant {
			projected -= r.size // replacing our own entry frees its bytes
		}
		if projected > capBytes {
			ts.rejected++
			sc.mu.Unlock()
			return ErrTenantShare
		}
	}
	ts.bytes += size
	sc.mu.Unlock()

	evicted, err := sc.store.Put(key, value, cost)

	sc.mu.Lock()
	defer sc.mu.Unlock()
	ts.bytes -= size
	if err != nil {
		return err
	}
	for _, k := range evicted {
		// A key put back since its eviction is settled by that put's own
		// commit.
		if _, back := sc.store.Meta(k); !back {
			sc.unregisterLocked(k, true)
		}
	}
	ts.inserts++
	if _, ok := sc.store.Meta(key); !ok {
		// A concurrent insert evicted the entry before this commit; its
		// commit unregisters whatever was registered under key.
		ts.evicted++
		return nil
	}
	// A same-key replacement releases the previous owner's bytes and
	// retires the old vector id; the store replaced the entry in place, so
	// no eviction fired.
	sc.unregisterLocked(key, false)
	r := residentEntry{desc: descBytes, owner: tenant, size: size}
	if desc.Kind == feature.KindVector {
		sc.nextID++
		r.id = sc.nextID
		sc.keys[r.id] = key
		sc.index.Add(r.id, desc.Vec)
	}
	sc.resident[key] = r
	ts.bytes += size
	return nil
}

// StatsSnapshot is one coherent reading of the cache's counters: the raw
// store operation counters alongside the logical query counters, plus the
// store's capacity. See SimilarityCache.StatsSnapshot for the epoch
// guarantee.
type StatsSnapshot struct {
	Store       Stats
	Capacity    int64
	Queries     uint64
	ExactHits   uint64
	SimilarHits uint64
	// Tenants is the per-tenant ledger, read in the same lock epoch as
	// every other field — a tenant's Bytes never disagrees with the global
	// counters because a lookup or insert landed between two lock passes.
	Tenants map[string]TenantCacheStats
}

// StatsSnapshot reads the store counters, the logical query counters and
// the tenant ledgers in a single acquisition of the cache mutex. It is
// the cache's one counter read, so no caller can combine counters read in
// different lock epochs. A lookup still mid-flight (store operation
// issued, query not yet counted) is the only residual motion a snapshot
// can observe.
func (sc *SimilarityCache) StatsSnapshot() StatsSnapshot {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	tenants := make(map[string]TenantCacheStats, len(sc.tenants))
	for t, ts := range sc.tenants {
		tenants[t] = TenantCacheStats{
			Queries:  ts.queries,
			Hits:     ts.hits,
			Inserts:  ts.inserts,
			Rejected: ts.rejected,
			Evicted:  ts.evicted,
			Bytes:    ts.bytes,
			CapBytes: sc.caps[t],
		}
	}
	return StatsSnapshot{
		Store:       sc.store.Stats(),
		Capacity:    sc.store.Capacity(),
		Queries:     sc.queries,
		ExactHits:   sc.exactHit,
		SimilarHits: sc.simHits,
		Tenants:     tenants,
	}
}

// residentDescs lists the registered keys in key order with their
// marshalled descriptors, once every insert in progress has committed.
func (sc *SimilarityCache) residentDescs() ([]string, map[string][]byte) {
	sc.settling.Lock()
	defer sc.settling.Unlock()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	keys := make([]string, 0, len(sc.resident))
	descs := make(map[string][]byte, len(sc.resident))
	for k, r := range sc.resident {
		keys = append(keys, k)
		descs[k] = r.desc
	}
	sort.Strings(keys)
	return keys, descs
}

// IndexLen reports how many vectors the similarity index holds; tests use
// it to assert index/store consistency.
func (sc *SimilarityCache) IndexLen() int { return sc.index.Len() }

// Layout reports what the cache was built from: the stripes' eviction
// policy, the stripe count and the vector index. Tests use it to check
// that configuration options took effect.
func (sc *SimilarityCache) Layout() (policy string, stripes int, index feature.Index) {
	return sc.store.shards[0].policy.Name(), len(sc.store.shards), sc.index
}
