package cache

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-immersion/coic/internal/feature"
)

// ForEachResident visits every resident entry whose descriptor was
// retained (the same population Snapshot persists), stopping early when
// fn returns false. The key list is snapshotted once and walked in key
// order — migration pushes into capacity-bound peers, so a map-order
// walk would make what survives there differ from run to run — then each
// entry is read under its own lock epoch, so concurrent inserts and
// evictions never block behind the walk; an entry evicted mid-walk is
// simply skipped. This is the residency source for ring-change key
// migration.
func (sc *SimilarityCache) ForEachResident(fn func(desc feature.Descriptor, value []byte, cost float64) bool) {
	sc.mu.Lock()
	keys := make([]string, 0, len(sc.descs))
	for k := range sc.descs {
		keys = append(keys, k)
	}
	sc.mu.Unlock()
	sort.Strings(keys)

	for _, k := range keys {
		sc.mu.Lock()
		raw := sc.descs[k]
		sc.mu.Unlock()
		if raw == nil {
			continue
		}
		desc, err := feature.Unmarshal(raw)
		if err != nil {
			continue // retained descriptor is authoritative; skip if torn
		}
		value, ok := sc.store.Get(k)
		if !ok {
			continue // evicted between listing and reading
		}
		meta, _ := sc.store.Meta(k)
		if !fn(desc, value, meta.Cost) {
			return
		}
	}
}

// Migrator re-homes resident cache entries when the federation's ring
// changes. A membership layer calls Sweep with the superseded ring after
// every rebuild: the migrator walks local residency and pushes each key
// whose owner set gained a node — a join taking over part of the
// keyspace, or a successor promoted by a death — to the new owners, so
// the federation's one-hop lookup invariant survives churn without
// waiting for natural republication. Drain is the decommission variant:
// it pushes every key this node co-owns to the owners that remain once
// this node leaves the ring.
//
// Sweeps are rate-limited (Rate keys/second, 0 = unthrottled) so a big
// rebalance trickles out instead of flooding peer links that are also
// serving interactive traffic. One sweep runs at a time; callers that
// kick during a sweep should re-kick after it returns (see the serving
// glue), since the walk uses the ring current at each key.
type Migrator struct {
	cache *SimilarityCache
	fed   *Federation
	rate  int

	mu       sync.Mutex // serialises Sweep/Drain
	migrated atomic.Uint64
}

// NewMigrator wires a migrator over one edge's cache and federation.
// rate caps migration pushes in keys/second; <= 0 means unthrottled.
func NewMigrator(sc *SimilarityCache, fed *Federation, rate int) *Migrator {
	return &Migrator{cache: sc, fed: fed, rate: rate}
}

// Migrated reports the total number of keys pushed by sweeps and drains
// since construction (the coic_migration_keys_total counter).
func (m *Migrator) Migrated() uint64 { return m.migrated.Load() }

// Sweep pushes every resident key whose owner set under the federation's
// current ring includes nodes that did not own it under prev. prev may be
// nil (no prior ring — e.g. first ring after solo operation), which
// pushes each key to all its current remote owners. Returns the number
// of keys pushed; a dead ctx stops the walk early.
func (m *Migrator) Sweep(ctx context.Context, prev *Ring) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.fed.Ring()
	if cur == nil {
		return 0
	}
	rf := m.fed.Replication()
	return m.walk(ctx, func(key string) []string {
		owners := cur.OwnersFor(key, rf)
		if prev == nil {
			return owners
		}
		return ownerDiff(owners, prev.OwnersFor(key, rf))
	})
}

// Drain pushes every key this node co-owns to the owners it would have
// on the current ring with this node removed — the successor promotion a
// graceful decommission performs before exit. Keys this node merely
// caches but does not own are left alone; their owners already have them.
func (m *Migrator) Drain(ctx context.Context) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.fed.Ring()
	if cur == nil {
		return 0
	}
	rf := m.fed.Replication()
	next := cur.Without(m.fed.Self())
	return m.walk(ctx, func(key string) []string {
		owners := cur.OwnersFor(key, rf)
		if !containsOwner(owners, m.fed.Self()) {
			return nil
		}
		// Push to owners promoted by our departure; survivors that
		// already co-owned the key keep their copy.
		return ownerDiff(next.OwnersFor(key, rf), owners)
	})
}

// walk visits residency, publishing each key to targets(key) and pacing
// by the configured rate. The per-key target computation runs inside the
// walk so an unthrottled sweep is one pass.
func (m *Migrator) walk(ctx context.Context, targets func(key string) []string) int {
	var interval time.Duration
	if m.rate > 0 {
		interval = time.Second / time.Duration(m.rate)
	}
	moved := 0
	m.cache.ForEachResident(func(desc feature.Descriptor, value []byte, cost float64) bool {
		if ctx.Err() != nil {
			return false
		}
		dst := targets(desc.Key())
		if len(dst) == 0 {
			return true
		}
		if sent := m.fed.publishTo(dst, desc, value, cost); len(sent) > 0 {
			moved++
			m.migrated.Add(1)
			if interval > 0 {
				select {
				case <-ctx.Done():
					return false
				case <-time.After(interval):
				}
			}
		}
		return true
	})
	return moved
}

// ownerDiff returns the members of cur that are absent from prev,
// preserving cur's order.
func ownerDiff(cur, prev []string) []string {
	var out []string
	for _, c := range cur {
		if !containsOwner(prev, c) {
			out = append(out, c)
		}
	}
	return out
}

func containsOwner(owners []string, id string) bool {
	for _, o := range owners {
		if o == id {
			return true
		}
	}
	return false
}
