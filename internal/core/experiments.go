package core

import (
	"context"
	"fmt"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/trace"
	"github.com/edge-immersion/coic/internal/vision"
)

// Fig2aRow is one network condition of Figure 2a: recognition latency for
// the Origin baseline, a CoIC cache hit and a CoIC cache miss.
type Fig2aRow struct {
	Condition netsim.Condition
	Origin    Breakdown
	Hit       Breakdown
	Miss      Breakdown
}

// Reduction is the paper's headline metric: the relative latency saving
// of a cache hit over the origin baseline.
func (r Fig2aRow) Reduction() float64 { return reduction(r.Origin, r.Hit) }

func reduction(origin, hit Breakdown) float64 {
	if origin.Total() == 0 {
		return 0
	}
	return 1 - float64(hit.Total())/float64(origin.Total())
}

// threeBars measures one request the three ways both figures plot it, in
// this order: cold (the Cache Miss bar — it fills the cache), warm (the
// Cache Hit bar) and in Origin mode, which bypasses the cache. run's nth
// argument is that position. Each measurement runs on freshly reset
// links so queueing from one mode cannot pollute another.
func threeBars(topo *netsim.Topology, run func(nth int, mode Mode) (Breakdown, error)) (bars [3]Breakdown, err error) {
	for nth, mode := range []Mode{ModeCoIC, ModeCoIC, ModeOrigin} {
		if nth > 0 {
			topo.Reset()
		}
		if bars[nth], err = run(nth, mode); err != nil {
			return bars, fmt.Errorf("%s request: %w", [...]string{"miss", "hit", "origin"}[nth], err)
		}
	}
	if bars[0].Outcome != cache.OutcomeMiss {
		return bars, fmt.Errorf("cold request was not a miss (%v)", bars[0].Outcome)
	}
	if bars[1].Outcome == cache.OutcomeMiss {
		return bars, fmt.Errorf("warm request missed")
	}
	return bars, nil
}

// RunFig2a regenerates Figure 2a: one recognition request per mode per
// network condition. The hit request observes the same object as the
// miss from a different viewpoint, exercising the similarity match.
func RunFig2a(p Params) ([]Fig2aRow, error) {
	cloud := NewCloud(p)
	var rows []Fig2aRow
	for _, cond := range netsim.Fig2aConditions() {
		topo := netsim.NewTopology(cond, p.Seed)
		sess := NewSession(NewClient(0, p), NewEdge(p), cloud, topo)
		var labels [3]string
		bars, err := threeBars(topo, func(nth int, mode Mode) (Breakdown, error) {
			viewSeed := uint64(1001 * (nth + 1))
			b, res, err := sess.Do(context.Background(), epoch, RecognizeTask(vision.ClassStopSign, viewSeed), mode)
			if err == nil {
				labels[nth] = res.Label
			}
			return b, err
		})
		if err != nil {
			return nil, fmt.Errorf("fig2a %s (threshold %v): %w", cond.Name, p.Threshold, err)
		}
		if labels[1] != labels[0] {
			return nil, fmt.Errorf("fig2a %s: cached label %q != cloud label %q", cond.Name, labels[1], labels[0])
		}
		rows = append(rows, Fig2aRow{Condition: cond, Miss: bars[0], Hit: bars[1], Origin: bars[2]})
	}
	return rows, nil
}

// Fig2bRow is one model size of Figure 2b: load latency for Origin, hit
// and miss.
type Fig2bRow struct {
	ModelKB   int
	OBJXBytes int
	CMFBytes  int
	Origin    Breakdown
	Hit       Breakdown
	Miss      Breakdown
}

// Reduction mirrors Fig2aRow.Reduction for the rendering task.
func (r Fig2bRow) Reduction() float64 { return reduction(r.Origin, r.Hit) }

// MidSweep is the 200/20 Mbps condition in the middle of Figure 2a's
// sweep: the fixed network of Figure 2b (the paper does not vary it
// there) and the default of every ablation and of an unconfigured System.
var MidSweep = netsim.Condition{Name: "200/20", MobileEdge: 200, EdgeCloud: 20}

// RunFig2b regenerates Figure 2b — load latency under Origin / Cache Hit
// / Cache Miss — over the given rungs of the model-size ladder
// (Fig2bModelKB is all six).
func RunFig2b(p Params, sizesKB []int) ([]Fig2bRow, error) {
	cloud := NewCloud(p)
	var rows []Fig2bRow
	for _, kb := range sizesKB {
		id := Fig2bModelID(kb)
		topo := netsim.NewTopology(MidSweep, p.Seed)
		sess := NewSession(NewClient(0, p), NewEdge(p), cloud, topo)
		bars, err := threeBars(topo, func(_ int, mode Mode) (Breakdown, error) {
			b, _, err := sess.Do(context.Background(), epoch, RenderTask(id), mode)
			return b, err
		})
		if err != nil {
			return nil, fmt.Errorf("fig2b %dKB: %w", kb, err)
		}
		if bars[1].Outcome != cache.OutcomeExact {
			return nil, fmt.Errorf("fig2b %dKB: warm request was %v, want exact hit", kb, bars[1].Outcome)
		}
		objx, cmf, err := cloud.ModelSizes(id)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2bRow{
			ModelKB: kb, OBJXBytes: objx, CMFBytes: cmf,
			Miss: bars[0], Hit: bars[1], Origin: bars[2],
		})
	}
	return rows, nil
}

// Placement decides which edge serves which user in a multi-edge
// deployment.
type Placement int

// Client placement strategies.
const (
	// PlaceByCell maps a user's cell to an edge, so users who share
	// physical locality (and therefore content interest, per the trace
	// generator's locality model) land on the same edge. This is the
	// deployment the paper implies: an edge per access point.
	PlaceByCell Placement = iota
	// PlaceScatter spreads users over edges round-robin regardless of
	// cell — the adversarial placement where co-interested users end up
	// behind different edges, so only federation can recover the sharing.
	PlaceScatter
)

// String names the placement for experiment output.
func (p Placement) String() string {
	if p == PlaceByCell {
		return "by-cell"
	}
	return "scatter"
}

// FederationRow is one point of the federation ablation.
type FederationRow struct {
	Edges     int
	Placement Placement
	Federated bool
	Events    int
	Errors    int
	// HitRatio aggregates exact+similar+peer hits over lookups across
	// every edge.
	HitRatio float64
	// PeerHits counts lookups answered by a federated peer; Published
	// counts results pushed to their consistent-hash home edge.
	PeerHits  uint64
	Published uint64
	// CloudFetches counts requests that fell through to the cloud — the
	// offload metric: fewer cloud fetches means less WAN traffic and
	// cloud compute.
	CloudFetches int
	P50, P99     time.Duration
}

// FederationPoint is one point of the multi-edge ablation: events
// replayed over n edges under the given client placement, the edges
// federated via consistent hashing or left isolated. As edges are added,
// aggregate cache capacity grows; federation keeps the keyspace unified
// (one peer hop instead of a cloud round trip), so the aggregate hit
// ratio rises and cloud traffic falls — the multi-edge extension of the
// paper's single-edge cooperative claim. A single edge has nobody to
// federate with and always runs isolated.
func FederationPoint(p Params, cond netsim.Condition, events []trace.Event, n int, placement Placement, federated bool) FederationRow {
	federated = federated && n > 1
	f := newFleet(p, cond, n)
	if federated {
		Federate(f.edges, FederationConfig{
			Mesh:      netsim.NewMesh(n, netsim.DefaultPeerCondition(), p.Seed),
			Replicate: true,
		})
	}
	res := f.replay(events, ModeCoIC, func(ev trace.Event) int {
		if placement == PlaceByCell {
			return ev.Cell % n
		}
		return ev.User % n
	}, nil)
	return FederationRow{
		Edges: n, Placement: placement, Federated: federated,
		Events: res.Events, Errors: res.Errors,
		HitRatio: res.Fleet.HitRatio(), PeerHits: res.Fleet.PeerHits, Published: res.Fleet.Published,
		CloudFetches: res.CloudFetches, P50: res.All.Median(), P99: res.All.P99(),
	}
}

// ThresholdPoint is one row of the A-threshold ablation: true-hit and
// false-hit rates at a candidate similarity threshold.
type ThresholdPoint struct {
	Threshold float64
	// TruePositive: same object (different view) matched.
	TruePositive float64
	// FalsePositive: different object matched.
	FalsePositive float64
}

// RunThresholdSweep measures descriptor-distance separation: for each
// candidate threshold, how often do same-object pairs fall inside it
// (good) and different-object pairs fall inside it (bad). This is the
// experiment that justifies DefaultParams().Threshold.
func RunThresholdSweep(p Params, thresholds []float64, pairs int) []ThresholdPoint {
	client := NewClient(0, p)
	describe := func(class vision.Class, viewSeed uint64) []float32 {
		desc, _ := client.Extract(client.CaptureFrame(class, viewSeed))
		return desc.Vec
	}
	var same, different []float64
	for i := 0; i < pairs; i++ {
		class := vision.Class(i % int(vision.NumClasses))
		other := vision.Class((i + 1 + i/int(vision.NumClasses)) % int(vision.NumClasses))
		a := describe(class, uint64(9000+i))
		// Same object, new viewpoint; then a different object.
		same = append(same, feature.L2Distance(a, describe(class, uint64(50000+i))))
		different = append(different, feature.L2Distance(a, describe(other, uint64(90000+i))))
	}
	within := func(dists []float64, th float64) float64 {
		n := 0
		for _, d := range dists {
			if d <= th {
				n++
			}
		}
		return float64(n) / float64(len(dists))
	}
	var out []ThresholdPoint
	for _, th := range thresholds {
		out = append(out, ThresholdPoint{Threshold: th, TruePositive: within(same, th), FalsePositive: within(different, th)})
	}
	return out
}

// ChurnRow is one point of the membership-churn ablation.
type ChurnRow struct {
	Edges int
	// Cycles is how many crash+rejoin cycles hit the fleet mid-run.
	Cycles int
	// Dynamic: the ring is rebuilt (and keys migrated) on every
	// membership change — the gossip pipeline's routing behaviour.
	// False is the static-ring baseline: dead members keep their ring
	// arc and every lookup homed there pays a cloud fetch.
	Dynamic bool
	// RF is the replication factor both modes run with.
	RF     int
	Events int
	Errors int
	// HitRatio aggregates exact+similar+peer hits over lookups across
	// every edge.
	HitRatio  float64
	PeerHits  uint64
	Published uint64
	// Repaired counts read-repair inserts (a replica answered a probe
	// its home missed).
	Repaired uint64
	// Migrated counts keys re-homed by post-change migration sweeps.
	Migrated int
	// RingVersion is the final ring version (1 when the ring never moved).
	RingVersion  uint64
	CloudFetches int
	P50, P99     time.Duration
}

// ChurnPoint is one point of the dynamic-membership ablation: events
// replayed over n edges replicating rf ways while members crash and
// rejoin mid-run. 2*cycles membership changes are spread evenly through
// the run: cycle k crashes member 1+k%(n-1) (member 0 is the stable
// seed) and rejoins it one slot later, so n must be at least 2. In
// dynamic mode the ring is rebuilt on every change and migration sweeps
// re-home the moved keys (what the gossip protocol automates over TCP);
// the static baseline keeps the boot-time ring, so a dead member's arc of
// the keyspace degrades to cloud fetches until it returns.
func ChurnPoint(p Params, cond netsim.Condition, events []trace.Event, n, rf, cycles int, dynamic bool) ChurnRow {
	f := newFleet(p, cond, n)
	mesh := netsim.NewMesh(n, netsim.DefaultPeerCondition(), p.Seed)
	ids := make([]string, n)
	alive := make([]bool, n)
	for i := range ids {
		ids[i] = EdgeID(i)
		alive[i] = true
	}
	ring := cache.NewRing(ids, 0)
	version := uint64(1)
	migrated := 0
	// retired keeps the counters of federation views a change replaced.
	var retired FleetStats

	// deadPeer keeps a crashed member addressable on the static ring:
	// probes miss and publishes vanish, exactly what routing to a dead
	// TCP peer degrades to after its dial backoff.
	deadPeer := cache.Peer{
		Probe: func(context.Context, int, uint8, feature.Descriptor) ([]byte, cache.LookupResult, time.Duration) {
			return nil, cache.LookupResult{Outcome: cache.OutcomeMiss}, 0
		},
		Insert: func(feature.Descriptor, []byte, float64) {},
	}

	// refederate rebuilds every live edge's federation over the current
	// membership. Dynamic mode shrinks the ring to the alive set at a
	// bumped version; the baseline keeps the full boot-time ring and
	// swaps dead members' transports for tombstones.
	refederate := func() {
		if dynamic {
			var liveIDs []string
			for i, ok := range alive {
				if ok {
					liveIDs = append(liveIDs, ids[i])
				}
			}
			ring = cache.NewRingVersion(liveIDs, 0, version)
		}
		for i, e := range f.edges {
			if dynamic && !alive[i] {
				continue // a crashed member routes nothing until it rejoins
			}
			fed := cache.NewFederation(ids[i], ring)
			fed.SetReplication(rf)
			for j, pe := range f.edges {
				if j == i {
					continue
				}
				if alive[j] {
					fed.AddPeer(ids[j], virtualPeer(pe, mesh.Link(i, j)))
				} else if !dynamic {
					fed.AddPeer(ids[j], deadPeer)
				}
			}
			retired.addFederation(e.Federation())
			e.SetFederation(fed, true)
		}
	}
	refederate()

	var last time.Duration
	for _, ev := range events {
		if ev.At > last {
			last = ev.At
		}
	}
	// Crash drops a member without warning (no drain — that is the
	// graceful path); in dynamic mode the survivors rebuild the ring and
	// sweep their residents so keys the dead member owned re-home from
	// surviving replicas. Rejoin brings it back warm (a restart that kept
	// its disk cache); survivors sweep again to hand over its arc.
	changes := make([]intervention, 2*cycles)
	for j := range changes {
		victim, up := 1+(j/2)%(n-1), j%2 == 1
		changes[j] = intervention{
			at: last * time.Duration(j+1) / time.Duration(2*cycles+1),
			do: func() {
				alive[victim] = up
				version++
				prev := ring
				refederate()
				for i, e := range f.edges {
					if dynamic && alive[i] {
						migrated += cache.NewMigrator(e.Cache, e.Federation(), 0).Sweep(context.Background(), prev)
					}
				}
			},
		}
	}

	// Route each client to its cell's edge, falling over to the next
	// live one while it is down (the client reconnects elsewhere).
	res := f.replay(events, ModeCoIC, func(ev trace.Event) int {
		base := ev.Cell % n
		for k := 0; k < n; k++ {
			if alive[(base+k)%n] {
				return (base + k) % n
			}
		}
		return base
	}, changes)
	return ChurnRow{
		Edges: n, Cycles: cycles, Dynamic: dynamic, RF: rf,
		Events: res.Events, Errors: res.Errors,
		HitRatio: res.Fleet.HitRatio(), PeerHits: res.Fleet.PeerHits,
		Published: res.Fleet.Published + retired.Published,
		Repaired:  res.Fleet.Repaired + retired.Repaired,
		Migrated:  migrated, RingVersion: ring.Version(),
		CloudFetches: res.CloudFetches, P50: res.All.Median(), P99: res.All.P99(),
	}
}
