package core

import (
	"bytes"
	"context"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/wire"
)

// Edge is the mobile-edge node of Figure 1: it holds the IC cache keyed
// by feature descriptor and either answers requests from it or forwards
// them to the cloud. One Edge serves many clients; cooperation across
// users falls out of the shared cache, and cooperation across edges is
// the optional federation (Federate, EdgeServer.SetupFederation).
type Edge struct {
	Params Params
	Cache  *cache.SimilarityCache
	// cacheConfig is what the options set and NewEdge builds Cache from.
	cacheConfig cache.SimilarityConfig

	// PrivacyK is the k-anonymity gate on cross-user sharing, this
	// reproduction's take on the paper's "security/privacy protection"
	// future work: a cached result is only served to a user other than
	// its contributors once at least PrivacyK distinct users have
	// requested it. Below the threshold, other users miss (and add
	// themselves as contributors via the insert path); a user always
	// sees their own cached results. 0 or 1 disables the gate.
	PrivacyK int

	// inflight coalesces concurrent misses on the same (or similar)
	// descriptor into one upstream fetch; every CoIC miss, over TCP and
	// in virtual time, resolves through it (see serve).
	inflight *cache.InflightTable
	// inflightMode governs how *virtual-time* lookups treat entries whose
	// producing fetch has not yet completed at the lookup instant.
	inflightMode InflightMode

	mu        sync.Mutex
	fed       *cache.Federation
	replicate bool
	stats     EdgeStats
	// readyAt records, per store key, the virtual instant the fetch that
	// inserted it completed. Only consulted when inflightMode is not
	// InflightInstant; entries are dropped lazily once they mature.
	readyAt map[string]time.Time
	// inserters tracks which users computed (and inserted) each entry;
	// interest tracks every distinct user who has asked for it. The gate
	// opens once len(interest) reaches PrivacyK — content K users
	// demonstrably want is no longer attributable to any one of them.
	inserters map[string]map[int]struct{}
	interest  map[string]map[int]struct{}
}

// InflightMode selects how a virtual-time lookup treats a cache entry
// whose producing fetch has not yet completed at the lookup's virtual
// instant. The discrete-event engine replays requests one at a time, so
// without this knob an insert made while "processing" request A is
// instantly visible to request B even when B's virtual timestamp falls
// inside A's cloud round trip — optimistically hiding the redundant
// fetches that concurrent bursts really cause.
type InflightMode int

// Virtual-time in-flight handling.
const (
	// InflightInstant is the seed behaviour: inserts are visible to every
	// later-processed event regardless of virtual timing. Kept as the
	// default so calibrated figures (2a/2b, hit-ratio sweeps) are
	// unchanged.
	InflightInstant InflightMode = iota
	// InflightSerial is the honest no-coalescing replay: an entry still in
	// flight at the lookup instant reads as a miss, and the request pays
	// its own full fetch — what a serial edge really does under a burst.
	InflightSerial
	// InflightCoalesce joins the in-flight fetch: the lookup waits until
	// the fetch's virtual completion and shares its result, paying the
	// residual wait instead of a second upstream fetch.
	InflightCoalesce
)

// String names the mode for experiment output.
func (m InflightMode) String() string {
	switch m {
	case InflightSerial:
		return "serial"
	case InflightCoalesce:
		return "coalesce"
	default:
		return "instant"
	}
}

// EdgeStats counts per-task outcomes at the edge.
type EdgeStats struct {
	Lookups  map[wire.Task]uint64
	Exact    map[wire.Task]uint64
	Similar  map[wire.Task]uint64
	Misses   map[wire.Task]uint64
	PeerHits uint64
	// Coalesced counts virtual-time lookups that joined an in-flight
	// fetch instead of paying their own (InflightCoalesce mode only);
	// each one is an upstream fetch saved. Wall-clock coalescing is
	// counted by the Inflight() table instead.
	Coalesced uint64
	Inserts   uint64
	// RemoteInserts counts inserts published to this edge by federated
	// peers (this edge is the key's consistent-hash home); they are also
	// included in Inserts.
	RemoteInserts uint64
	// PrivacyBlocked counts hits withheld by the k-anonymity gate.
	PrivacyBlocked uint64
}

func newEdgeStats() EdgeStats {
	return EdgeStats{
		Lookups: map[wire.Task]uint64{},
		Exact:   map[wire.Task]uint64{},
		Similar: map[wire.Task]uint64{},
		Misses:  map[wire.Task]uint64{},
	}
}

// EdgeOption configures an Edge. NewEdge applies every option before it
// builds the cache, so the cache options set configuration instead of
// rebuilding the cache.
type EdgeOption func(*Edge)

// WithCachePolicy sets the cache's eviction policy; policy builds one
// instance per store stripe (default cache.NewLRU).
func WithCachePolicy(policy func() cache.Policy) EdgeOption {
	return func(e *Edge) { e.cacheConfig.Policy = policy }
}

// WithCacheIndex sets the cache's vector index (default
// feature.NewLinear; e.g. feature.NewLSH for the A-index ablation).
func WithCacheIndex(idx feature.Index) EdgeOption {
	return func(e *Edge) { e.cacheConfig.Index = idx }
}

// WithPrivacyK enables the k-anonymity sharing gate.
func WithPrivacyK(k int) EdgeOption {
	return func(e *Edge) { e.PrivacyK = k }
}

// WithInflightMode selects the virtual-time in-flight policy (burst
// experiments use InflightSerial vs InflightCoalesce; the default
// InflightInstant preserves the calibrated single-request figures).
func WithInflightMode(m InflightMode) EdgeOption {
	return func(e *Edge) { e.inflightMode = m }
}

// NewEdge builds an edge. The IC cache is built once, after every
// option has set its fields of the cache's configuration, so the options
// compose in any order.
func NewEdge(p Params, opts ...EdgeOption) *Edge {
	e := &Edge{
		Params: p,
		cacheConfig: cache.SimilarityConfig{
			Capacity:  p.EdgeCacheBytes,
			Threshold: p.Threshold,
		},
		inflight:  cache.NewInflightTable(p.Threshold),
		replicate: true,
		stats:     newEdgeStats(),
		inserters: map[string]map[int]struct{}{},
		interest:  map[string]map[int]struct{}{},
		readyAt:   map[string]time.Time{},
	}
	for _, o := range opts {
		o(e)
	}
	e.Cache = cache.NewSimilarity(e.cacheConfig)
	return e
}

// SetFederation attaches a federation view built by Federate (virtual
// time) or an EdgeServer (TCP). replicate controls whether peer hits are
// adopted into the local cache so the next local request hits directly.
func (e *Edge) SetFederation(fed *cache.Federation, replicate bool) {
	e.mu.Lock()
	e.fed = fed
	e.replicate = replicate
	e.mu.Unlock()
}

// Federation returns the attached federation view (nil when standalone).
func (e *Edge) Federation() *cache.Federation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fed
}

// LookupResult describes where an edge lookup resolved.
type LookupResult struct {
	Value   []byte
	Outcome cache.Outcome
	// Distance is the descriptor distance on similar hits.
	Distance float64
	// Cost is the total virtual edge processing time consumed, peer hops
	// included.
	Cost time.Duration
	// PeerCost is the share of Cost spent on edge↔edge hops (lookup and
	// reply transfer plus the remote cache query); misses charge it too —
	// a failed probe is not free.
	PeerCost time.Duration
	// Coalesced is set when the lookup joined an in-flight fetch
	// (InflightCoalesce mode): the value was shared rather than refetched.
	Coalesced bool
	// Wait is the residual virtual time a coalesced lookup spent waiting
	// for the in-flight fetch to complete. Not included in Cost.
	Wait time.Duration
}

// Hit reports whether a usable cached value was found.
func (r LookupResult) Hit() bool { return r.Outcome != cache.OutcomeMiss }

// LookupTenant queries the cache anonymously (no privacy gating) for the
// TCP path, with the requesting tenant named: the tenant's cache ledger
// counts the query and any hit, and a peer hit adopted into the local
// cache charges the tenant's byte share (their traffic pulled it in). The
// match itself is tenant-blind — cross-tenant reuse is the point of the
// shared edge cache.
func (e *Edge) LookupTenant(ctx context.Context, tenant string, task wire.Task, desc feature.Descriptor) LookupResult {
	return e.lookupAtAs(ctx, anonymousUser, tenant, task, desc, time.Time{})
}

// anonymousUser marks lookups without an authenticated identity; the
// privacy gate treats every anonymous request as a fresh stranger.
const anonymousUser = -1

// lookupAtAs queries the local cache for user at virtual instant now,
// then the federation: the key's ring owners in successor order. A peer
// hit is (by default) copied into the local cache so the next local
// request hits directly — the cooperative sharing of the paper's title.
// When PrivacyK is set, results contributed by fewer than K distinct
// users are withheld from strangers. A non-zero now engages the virtual
// in-flight policy (see InflightMode); a zero now behaves as
// InflightInstant. ctx bounds the federation probe phase: TCP peers
// honour its deadline and cancellation, virtual-time probes ignore it.
// tenant names whose cache ledger the query is accounted to.
func (e *Edge) lookupAtAs(ctx context.Context, user int, tenant string, task wire.Task, desc feature.Descriptor, now time.Time) LookupResult {
	e.mu.Lock()
	e.stats.Lookups[task]++
	fed := e.fed
	replicate := e.replicate
	e.mu.Unlock()

	cost := e.Params.EdgeLookupTime
	if v, res := e.Cache.LookupAs(tenant, desc); res.Hit() {
		if !e.shareAllowed(user, res.Key) {
			e.mu.Lock()
			e.stats.PrivacyBlocked++
			e.stats.Misses[task]++
			e.mu.Unlock()
			return LookupResult{Outcome: cache.OutcomeMiss, Cost: cost}
		}
		wait, pending := e.virtualPending(res.Key, now)
		if !pending || e.inflightMode == InflightCoalesce {
			e.mu.Lock()
			if res.Outcome == cache.OutcomeExact {
				e.stats.Exact[task]++
			} else {
				e.stats.Similar[task]++
			}
			if pending {
				e.stats.Coalesced++
			}
			e.mu.Unlock()
			return LookupResult{
				Value: v, Outcome: res.Outcome, Distance: res.Distance,
				Cost: cost, Coalesced: pending, Wait: wait,
			}
		}
		// InflightSerial: the producing fetch has not completed at this
		// virtual instant, so an honest serial edge misses and pays its
		// own fetch — fall through to the federation/cloud path.
	}
	var peerCost time.Duration
	if fed != nil {
		v, res, _, pc, ok := fed.Lookup(ctx, user, uint8(task), desc.Key(), desc)
		peerCost = pc
		cost += peerCost
		if ok {
			if replicate {
				// Adopt the result locally (cooperative fill), charged to
				// the tenant whose traffic pulled it in.
				_ = e.Cache.InsertAs(tenant, desc, v, 1)
			}
			e.mu.Lock()
			e.stats.PeerHits++
			if res.Outcome == cache.OutcomeExact {
				e.stats.Exact[task]++
			} else {
				e.stats.Similar[task]++
			}
			e.mu.Unlock()
			return LookupResult{Value: v, Outcome: res.Outcome, Distance: res.Distance, Cost: cost, PeerCost: peerCost}
		}
	}
	e.mu.Lock()
	e.stats.Misses[task]++
	e.mu.Unlock()
	return LookupResult{Outcome: cache.OutcomeMiss, Cost: cost, PeerCost: peerCost}
}

// virtualPending reports whether key's producing fetch is still in
// flight at virtual instant now, and the residual wait until it lands.
// Matured entries are dropped so the map tracks only open fetches.
func (e *Edge) virtualPending(key string, now time.Time) (time.Duration, bool) {
	if now.IsZero() || e.inflightMode == InflightInstant {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ready, ok := e.readyAt[key]
	if !ok {
		return 0, false
	}
	if !ready.After(now) {
		delete(e.readyAt, key)
		return 0, false
	}
	return ready.Sub(now), true
}

// Inflight is the miss-coalescing table every CoIC miss resolves
// through, so concurrent misses on the same (or similar) descriptor
// trigger exactly one upstream fetch. A serial virtual-time replay is
// the leader of every flight.
func (e *Edge) Inflight() *cache.InflightTable { return e.inflight }

// cloudHop is how an edge reaches the cloud for a request its cache does
// not answer: EdgeServer sends it up the multiplexed TCP link and checks
// the reply, a Session's virtualHop charges the netsim links around the
// cloud's compute.
type cloudHop interface {
	// cloudFetch returns the payload the cloud computed for msg, the cost
	// hint a cache entry of it is weighed by, and the virtual instant it
	// is back at the edge (zero over TCP). leave is the virtual instant
	// the request leaves the edge (TCP ignores it); tenant is whose
	// upstream share the round trip is charged to.
	cloudFetch(ctx context.Context, tenant string, msg wire.Message, leave time.Time) (payload []byte, costHint float64, back time.Time, err error)
}

// edgeQuery is one request as the edge's cache-or-fetch decision sees it.
type edgeQuery struct {
	msg    wire.Message // the request, as sent to the cloud
	mode   Mode
	task   wire.Task
	desc   feature.Descriptor // what the cache is asked for
	user   int                // the privacy gate's identity (anonymousUser over TCP)
	tenant string             // whose cache ledger and upstream share it is charged to
	at     time.Time          // virtual instant it reaches the edge (zero over TCP)
}

// serve is CoIC's one decision at the edge, for both clocks: look the
// descriptor up — the local cache, then its ring owners — and on a miss
// fetch it through hop, coalesced with every concurrent miss on the same
// (or a similar) descriptor, inserting the result on the way back. It
// returns the payload, the tier that supplied it and the lookup. In
// origin mode the request goes straight through hop, with no lookup
// (the zero LookupResult), no insert and no coalescing: origin requests
// carry no meaningful descriptor, and each one must reach the cloud. obs
// (nil in virtual time) times the cache_lookup and cloud_fetch stages.
func (e *Edge) serve(ctx context.Context, q edgeQuery, obs *ServerObs, hop cloudHop) ([]byte, uint8, LookupResult, error) {
	var lr LookupResult
	if q.mode == ModeCoIC {
		start := time.Now()
		lr = e.lookupAtAs(ctx, q.user, q.tenant, q.task, q.desc, q.at)
		obs.observeCacheLookup(time.Since(start))
		if lr.Hit() {
			return lr.Value, wire.SourceEdge, lr, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, wire.SourceCloud, lr, err
	}
	start := time.Now()
	payload, source, err := e.fetch(ctx, q, hop, q.at.Add(lr.Cost))
	obs.observeCloudFetch(time.Since(start))
	return payload, source, lr, err
}

// fetch sends a request the cache did not answer to the cloud through
// hop: an origin request directly, a CoIC miss through the in-flight
// table. The flight's leader runs hop under the flight context — it
// survives any one waiter's departure and aborts when the last one is
// gone — and inserts the result on behalf of its own tenant: the fetch
// was charged to that tenant's upstream share, so the resident bytes
// land on its cache share too. The leader reports SourceCloud; waiters
// that joined its flight report SourceEdge (the edge held the result for
// them). A failed fetch fails every waiter and leaves the descriptor
// clean for the next attempt. It is apart from serve so that the closure
// is built on misses only.
//
// An origin request is sent before fetch returns, so it sends the
// request's own frame; a flight sends a copy, because it outlives a
// leader that departs, and the leader's frame is recycled (conn.finishJob)
// as soon as the leader answers.
func (e *Edge) fetch(ctx context.Context, q edgeQuery, hop cloudHop, leave time.Time) ([]byte, uint8, error) {
	if q.mode != ModeCoIC {
		payload, _, _, err := hop.cloudFetch(ctx, q.tenant, q.msg, leave)
		return payload, wire.SourceCloud, err
	}
	msg := q.msg
	msg.Body = bytes.Clone(msg.Body)
	val, leader, err := e.inflight.Do(ctx, q.desc, func(fctx context.Context) ([]byte, error) {
		payload, costHint, back, err := hop.cloudFetch(fctx, q.tenant, msg, leave)
		if err == nil {
			e.insertAtAs(q.user, q.tenant, q.desc, payload, costHint, back)
		}
		return payload, err
	})
	if !leader {
		return val, wire.SourceEdge, err
	}
	return val, wire.SourceCloud, err
}

// PeerProbe is the lookup a federated peer performs on this edge's
// behalf: local cache only — never this edge's own peers, never the
// cloud — so a federated lookup is bounded at one hop and cannot loop.
// The requester's identity passes through the privacy gate exactly as a
// local lookup would; blocked entries read as misses. Peer probes do not
// count toward this edge's Lookups/Misses (they are the *requesting*
// edge's traffic), but blocked ones do count PrivacyBlocked here, where
// the blocking happened.
func (e *Edge) PeerProbe(requester int, desc feature.Descriptor) ([]byte, cache.LookupResult) {
	v, res := e.Cache.Lookup(desc)
	if !res.Hit() {
		return nil, cache.LookupResult{Outcome: cache.OutcomeMiss}
	}
	if !e.shareAllowed(requester, res.Key) {
		e.mu.Lock()
		e.stats.PrivacyBlocked++
		e.mu.Unlock()
		return nil, cache.LookupResult{Outcome: cache.OutcomeMiss}
	}
	return v, res
}

// AdoptRemote inserts a result published by a federated peer (this edge
// is the key's consistent-hash home). The contributor is anonymous: the
// inserting user's identity never crosses the edge↔edge boundary.
func (e *Edge) AdoptRemote(desc feature.Descriptor, value []byte, costHint float64) {
	if err := e.Cache.Insert(desc, value, costHint); err == nil {
		e.mu.Lock()
		e.stats.Inserts++
		e.stats.RemoteInserts++
		e.mu.Unlock()
	}
}

// shareAllowed applies the k-anonymity gate. A user may read an entry if
// they inserted it themselves, or once PrivacyK distinct users have
// previously requested it (the membership check runs before the caller
// is registered, so the gate genuinely withholds the first K-1
// strangers). Blocked requests register interest, moving the entry
// toward unlocking.
func (e *Edge) shareAllowed(user int, key string) bool {
	if e.PrivacyK <= 1 {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if user != anonymousUser {
		if _, mine := e.inserters[key][user]; mine {
			return true
		}
	}
	allowed := len(e.interest[key]) >= e.PrivacyK
	if user != anonymousUser {
		if e.interest[key] == nil {
			e.interest[key] = map[int]struct{}{}
		}
		e.interest[key][user] = struct{}{}
	}
	return allowed
}

// InsertTenant stores a task result charged against tenant's cache byte
// share; a tenant at its cap serves the value through uncached (the
// insert is silently skipped, like any other best-effort insert failure).
func (e *Edge) InsertTenant(tenant string, desc feature.Descriptor, value []byte, costHint float64) time.Duration {
	return e.insertAtAs(anonymousUser, tenant, desc, value, costHint, time.Time{})
}

// insertAtAs stores a task result under its descriptor on behalf of user,
// returning the virtual insertion cost. at is the virtual instant the
// insert begins; when an in-flight policy is active, the entry is
// considered ready — visible to honestly-replayed lookups — only from
// at + EdgeInsertTime. Values too large for the cache (or over tenant's
// byte share) are silently skipped (the request already has its answer;
// caching is best-effort). Under consistent-hash federation the result is
// also published to the key's home edge — off the critical path, so the
// publish adds no user-visible latency.
func (e *Edge) insertAtAs(user int, tenant string, desc feature.Descriptor, value []byte, costHint float64, at time.Time) time.Duration {
	if err := e.Cache.InsertAs(tenant, desc, value, costHint); err == nil {
		e.mu.Lock()
		e.stats.Inserts++
		if !at.IsZero() && e.inflightMode != InflightInstant {
			// Keep the earliest maturity: once any fetch's copy of the
			// value is ready, a serial edge hits — a duplicate fetch
			// completing later must not re-open the in-flight window.
			key := desc.Key()
			ready := at.Add(e.Params.EdgeInsertTime)
			if cur, ok := e.readyAt[key]; !ok || ready.Before(cur) {
				e.readyAt[key] = ready
			}
		}
		if user != anonymousUser {
			key := desc.Key()
			if e.inserters[key] == nil {
				e.inserters[key] = map[int]struct{}{}
			}
			e.inserters[key][user] = struct{}{}
			if e.interest[key] == nil {
				e.interest[key] = map[int]struct{}{}
			}
			e.interest[key][user] = struct{}{}
		}
		fed := e.fed
		e.mu.Unlock()
		if fed != nil {
			fed.Publish(desc, value, costHint)
		}
	}
	return e.Params.EdgeInsertTime
}

// Stats returns a snapshot of edge counters.
func (e *Edge) Stats() EdgeStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := newEdgeStats()
	for k, v := range e.stats.Lookups {
		out.Lookups[k] = v
	}
	for k, v := range e.stats.Exact {
		out.Exact[k] = v
	}
	for k, v := range e.stats.Similar {
		out.Similar[k] = v
	}
	for k, v := range e.stats.Misses {
		out.Misses[k] = v
	}
	out.PeerHits = e.stats.PeerHits
	out.Coalesced = e.stats.Coalesced
	out.Inserts = e.stats.Inserts
	out.RemoteInserts = e.stats.RemoteInserts
	out.PrivacyBlocked = e.stats.PrivacyBlocked
	return out
}
