package coic

import "github.com/edge-immersion/coic/internal/cache"

// This file is the v2 observability surface: one coherent snapshot
// struct instead of the v1 tuple-returning methods (whose CacheStats
// silently discarded the similarity-hit counter of the edge cache).

// Re-exported counter types: the public API speaks these names; the
// internal packages own the implementations.
type (
	// InflightStats counts miss-coalescing outcomes (wall-clock TCP
	// serving joins these through the edge's in-flight table).
	InflightStats = cache.InflightStats
	// FederationStats counts cooperative peer-lookup outcomes.
	FederationStats = cache.FederationStats
	// TenantCacheStats counts one tenant's cache traffic and resident
	// footprint (lookups are tenant-blind — a hit on another tenant's
	// entry still counts as this tenant's hit — while bytes are owned by
	// whichever tenant inserted the entry).
	TenantCacheStats = cache.TenantCacheStats
)

// StoreStats describes the edge cache's resident state and raw store
// traffic.
type StoreStats struct {
	// BytesUsed / Capacity are resident bytes versus the byte budget.
	BytesUsed int64
	Capacity  int64
	// Entries is how many results are resident.
	Entries int
	// Insertions / Evictions count store churn.
	Insertions uint64
	Evictions  uint64
}

// QueryStats counts logical cache lookups — one outcome per query, which
// is what hit ratios are computed from. SimilarHits counts queries
// answered by a *different* descriptor within the similarity threshold,
// the cross-user redundancy the paper is built around.
type QueryStats struct {
	Queries     uint64
	ExactHits   uint64
	SimilarHits uint64
}

// HitRatio reports (exact+similar)/queries, or 0 with no traffic.
func (q QueryStats) HitRatio() float64 {
	if q.Queries == 0 {
		return 0
	}
	return float64(q.ExactHits+q.SimilarHits) / float64(q.Queries)
}

// QoSStats counts per-class traffic and deadline outcomes. For a
// virtual System it tallies Do calls (there is no queue to schedule in
// virtual time, so nothing sheds — misses are results that completed
// past their budget); the TCP servers' scheduler counters live in
// ServerStats instead.
type QoSStats struct {
	// Interactive / BestEffort count executed requests per class.
	Interactive uint64
	BestEffort  uint64
	// DeadlineMisses counts requests whose result completed after the
	// Request's Deadline budget (ErrDeadlineExceeded).
	DeadlineMisses uint64
}

// SystemStats is one coherent snapshot of a System's edge: the cache
// store, the logical query counters, the miss-coalescing table and the
// federation, taken together so related counters are mutually
// consistent enough for dashboards and tests.
type SystemStats struct {
	// Store is the resident cache state and raw store churn.
	Store StoreStats
	// Queries are the logical lookup counters (hit ratio lives here).
	Queries QueryStats
	// Inflight counts miss coalescing. Every miss is resolved through
	// the in-flight table; a virtual system runs one request at a time,
	// so each of its misses is a leader fetch and nothing coalesces.
	Inflight InflightStats
	// Federation counts peer cooperation; zero when standalone.
	Federation FederationStats
	// PrivacyBlocked counts hits withheld by the k-anonymity gate.
	PrivacyBlocked uint64
	// Coalesced counts virtual-time lookups that joined an in-flight
	// fetch (InflightCoalesce mode).
	Coalesced uint64
	// QoS counts per-class traffic and deadline misses (System.Do).
	QoS QoSStats
	// Tenants breaks cache traffic and resident bytes down by tenant,
	// read in the same lock epoch as Store and Queries so the per-tenant
	// ledger cannot skew against the totals. Tenantless traffic appears
	// under "default".
	Tenants map[string]TenantCacheStats
}

// Stats snapshots the system's edge-side counters. Store and query
// counters are read in one lock epoch (cache.StatsSnapshot), so the two
// sides cannot skew against each other under concurrent traffic.
func (s *System) Stats() SystemStats {
	snap := s.edge.Cache.StatsSnapshot()
	es := s.edge.Stats()
	out := SystemStats{
		Store: StoreStats{
			BytesUsed:  snap.Store.BytesUsed,
			Capacity:   snap.Capacity,
			Entries:    snap.Store.Entries,
			Insertions: snap.Store.Insertions,
			Evictions:  snap.Store.Evictions,
		},
		Queries: QueryStats{
			Queries:     snap.Queries,
			ExactHits:   snap.ExactHits,
			SimilarHits: snap.SimilarHits,
		},
		Inflight:       s.edge.Inflight().Stats(),
		PrivacyBlocked: es.PrivacyBlocked,
		Coalesced:      es.Coalesced,
		QoS:            s.qos,
		Tenants:        snap.Tenants,
	}
	if fed := s.edge.Federation(); fed != nil {
		out.Federation = fed.Stats()
	}
	return out
}
