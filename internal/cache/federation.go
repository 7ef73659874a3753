package cache

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/feature"
)

// This file is the federation lookup path: how one edge's cache consults
// its peers before conceding a miss to the cloud. The Federation owns the
// routing decision (which peer, in which order) and the counters; the
// transport — a direct call in virtual time, a MsgPeerLookup frame over
// TCP — is injected as callbacks, so the same policy drives both modes.

// PeerProbe resolves a descriptor at one remote peer. ctx carries the
// requesting caller's deadline and cancellation — a TCP probe must abort
// when ctx dies rather than stall the miss path (virtual-time probes may
// ignore it). requester is an opaque user identity forwarded to the
// peer's privacy gate (pass -1 when anonymous); task is an opaque
// workload tag carried on the wire for the peer's accounting — the cache
// layer interprets neither. The returned cost is the virtual time of the
// hop: transfer of the lookup and reply over the edge↔edge link plus the
// peer's own cache query time. Probes must be safe for concurrent use.
type PeerProbe func(ctx context.Context, requester int, task uint8, desc feature.Descriptor) ([]byte, LookupResult, time.Duration)

// PeerInsert publishes a freshly computed result to a remote peer (one of
// the key's owners). It runs off the request's critical path —
// replication is asynchronous in spirit — so it returns nothing.
type PeerInsert func(desc feature.Descriptor, value []byte, cost float64)

// Peer bundles the two directions of cooperation with one remote edge.
type Peer struct {
	Probe  PeerProbe
	Insert PeerInsert // optional; nil disables publishing to this peer
}

// FederationStats counts cooperative-lookup outcomes.
type FederationStats struct {
	// Probes is how many peer lookups were issued.
	Probes uint64
	// Hits is how many probes returned a usable value.
	Hits uint64
	// Misses is how many probes came back empty.
	Misses uint64
	// Coalesced counts lookups that joined an in-flight probe for the
	// same key instead of issuing their own (concurrent TCP misses).
	Coalesced uint64
	// Published counts inserts routed to a key's owners (one count per
	// peer insert, so rf=2 publishes from a non-owner count twice).
	Published uint64
	// Repaired counts read-repair inserts: an owner earlier in a key's
	// successor list missed while a later replica hit, so the value was
	// pushed back to the peer that should have had it.
	Repaired uint64
}

// Federation routes cache misses across a set of cooperating edges. Its
// Ring gives every key an owner list (the home plus rf-1 successors):
// lookups probe the owners in order and inserts are published to the
// first rf of them, so the federation behaves like one partitioned,
// rf-way replicated cache.
//
// The ring is swappable (SetRing): a membership layer rebuilds it on
// every epoch change, and in-flight lookups simply use whichever ring
// they started with — at worst a probe lands on a peer that no longer
// owns the key and misses.
type Federation struct {
	self string

	mu    sync.Mutex
	ring  *Ring
	rf    int // replication factor; <=1 means home-only
	peers map[string]Peer
	stats FederationStats

	// inflight coalesces concurrent probes for the same key: N requests
	// missing locally at once cost the federation one peer round trip,
	// not N. Virtual-time experiments are single-threaded, so there every
	// lookup is its own leader and behaviour is unchanged.
	inflight Inflight[probeOutcome]
}

// probeOutcome is the fan-out payload of one coalesced probe round.
type probeOutcome struct {
	value []byte
	res   LookupResult
	peer  string
	cost  time.Duration
	ok    bool
}

// NewFederation builds the federation view of node `self` over ring,
// which must not be nil. Replication factor starts at 1 (home-only);
// raise it with SetReplication.
func NewFederation(self string, ring *Ring) *Federation {
	return &Federation{self: self, ring: ring, rf: 1, peers: map[string]Peer{}}
}

// Self reports this node's federation ID.
func (f *Federation) Self() string { return f.self }

// Ring exposes the current keyspace partition.
func (f *Federation) Ring() *Ring {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring
}

// SetRing swaps in a new keyspace partition. The membership layer calls
// this on every epoch change; Lookup/Publish pick up the new ring on
// their next routing decision.
func (f *Federation) SetRing(r *Ring) {
	f.mu.Lock()
	f.ring = r
	f.mu.Unlock()
}

// RingVersion reports the current ring's version.
func (f *Federation) RingVersion() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.Version()
}

// SetReplication sets the replication factor: keys are published to, and
// probed at, their first rf ring owners. Values <= 1 mean home-only.
func (f *Federation) SetReplication(rf int) {
	f.mu.Lock()
	if rf < 1 {
		rf = 1
	}
	f.rf = rf
	f.mu.Unlock()
}

// Replication reports the configured replication factor.
func (f *Federation) Replication() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rf
}

// AddPeer registers a remote edge. Re-registering an ID replaces its
// callbacks (a reconnecting TCP peer).
func (f *Federation) AddPeer(id string, p Peer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peers[id] = p
}

// RemovePeer forgets a remote edge (a member declared dead). Probes and
// publishes stop routing to it immediately; re-adding later is fine.
func (f *Federation) RemovePeer(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.peers, id)
}

// Peers lists the registered peer IDs, in no particular order.
func (f *Federation) Peers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, 0, len(f.peers))
	for id := range f.peers {
		ids = append(ids, id)
	}
	return ids
}

// probeOrder lists the peers to consult for key, most promising first:
// the key's owners in successor order, minus this node and any owner with
// no registered peer. A nil return means nobody else is worth asking —
// the caller degrades to its own fallback (local result, then cloud).
func (f *Federation) probeOrder(key string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var order []string
	for _, owner := range f.ring.OwnersFor(key, f.rf) {
		if owner == f.self {
			continue
		}
		if _, ok := f.peers[owner]; ok {
			order = append(order, owner)
		}
	}
	return order
}

// Lookup runs the peer phase of a cache miss: probe the key's owners in
// successor order and return the first usable value, bounded by ctx —
// probes inherit the caller's deadline, and a caller that departs
// mid-probe detaches from the coalesced round.
// peer names who answered; cost accumulates over every hop taken, hit or
// not. When a later replica hits after an earlier owner missed, the value
// is pushed back to the owners that missed (read-repair), so a home
// recovering from a restart or a freshly promoted successor converges
// back to full coverage without waiting for republication.
// Concurrent lookups for the same (requester, key) coalesce onto one
// probe round whose outcome fans out to all of them; the requester is
// part of the flight key because the remote privacy gate answers per
// requester — a stranger must not ride a contributor's probe to a value
// the gate would withhold from them. (TCP edges probe anonymously, so in
// practice all of a TCP edge's misses on a key still share one flight.)
// A (LookupResult{}, ok=false) return means the federation has nothing —
// the caller falls back to the cloud.
func (f *Federation) Lookup(ctx context.Context, requester int, task uint8, key string, desc feature.Descriptor) (value []byte, res LookupResult, peer string, cost time.Duration, ok bool) {
	flight := fmt.Sprintf("%d|%s", requester, key)
	out, leader, err := f.inflight.Do(ctx, flight, func(fctx context.Context) (probeOutcome, error) {
		return f.probeRound(fctx, requester, task, key, desc), nil
	})
	if !leader {
		f.addStat(func(s *FederationStats) { s.Coalesced++ })
	}
	if err != nil {
		// The caller departed (its context died) before the probe round
		// finished: report a miss so it degrades to its own fallback path.
		return nil, LookupResult{Outcome: OutcomeMiss}, "", 0, false
	}
	return out.value, out.res, out.peer, out.cost, out.ok
}

// probeRound issues the actual peer probes for one coalesced flight. ctx
// is the flight context: it dies when the last coalesced caller departs,
// aborting any probe still on the wire.
func (f *Federation) probeRound(ctx context.Context, requester int, task uint8, key string, desc feature.Descriptor) probeOutcome {
	var cost time.Duration
	var missed []string // owners probed before the hit, for read-repair
	for _, id := range f.probeOrder(key) {
		if ctx.Err() != nil {
			break
		}
		f.mu.Lock()
		p, registered := f.peers[id]
		f.mu.Unlock()
		if !registered || p.Probe == nil {
			continue
		}
		f.addStat(func(s *FederationStats) { s.Probes++ })
		v, r, c := p.Probe(ctx, requester, task, desc)
		cost += c
		if r.Hit() {
			f.addStat(func(s *FederationStats) { s.Hits++ })
			f.readRepair(missed, desc, v)
			return probeOutcome{value: v, res: r, peer: id, cost: cost, ok: true}
		}
		f.addStat(func(s *FederationStats) { s.Misses++ })
		missed = append(missed, id)
	}
	return probeOutcome{res: LookupResult{Outcome: OutcomeMiss}, cost: cost}
}

// readRepair pushes a value a replica served back to the owners earlier
// in its successor list that missed.
func (f *Federation) readRepair(missed []string, desc feature.Descriptor, value []byte) {
	for _, id := range missed {
		f.mu.Lock()
		p, ok := f.peers[id]
		f.mu.Unlock()
		if !ok || p.Insert == nil {
			continue
		}
		p.Insert(desc, value, 0)
		f.addStat(func(s *FederationStats) { s.Repaired++ })
	}
}

// Publish routes a freshly computed result to the first rf owners of its
// key so future lookups from any edge find it in one hop even when one
// owner dies. This node is skipped (it already holds the value locally),
// as are owners with no insert path. Returns the peers published to, if
// any.
func (f *Federation) Publish(desc feature.Descriptor, value []byte, cost float64) []string {
	f.mu.Lock()
	ring, rf := f.ring, f.rf
	f.mu.Unlock()
	return f.publishTo(ring.OwnersFor(desc.Key(), rf), desc, value, cost)
}

// publishTo inserts the value at every listed owner except this node,
// counting each successful routing. It is the shared sink for Publish,
// read-repair-style migration sweeps and decommission drains.
func (f *Federation) publishTo(owners []string, desc feature.Descriptor, value []byte, cost float64) []string {
	var sent []string
	for _, owner := range owners {
		if owner == f.self {
			continue
		}
		f.mu.Lock()
		p, ok := f.peers[owner]
		f.mu.Unlock()
		if !ok || p.Insert == nil {
			continue
		}
		p.Insert(desc, value, cost)
		f.addStat(func(s *FederationStats) { s.Published++ })
		sent = append(sent, owner)
	}
	return sent
}

func (f *Federation) addStat(fn func(*FederationStats)) {
	f.mu.Lock()
	fn(&f.stats)
	f.mu.Unlock()
}

// Stats returns a counter snapshot.
func (f *Federation) Stats() FederationStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
