package core

import (
	"context"
	"fmt"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/dnn"
	"github.com/edge-immersion/coic/internal/metrics"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/sim"
	"github.com/edge-immersion/coic/internal/trace"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// epoch anchors all virtual-time experiments.
var epoch = time.Date(2018, 8, 20, 9, 0, 0, 0, time.UTC)

// This file is the one virtual-time trace replay every trace-driven
// experiment runs on: RunTrace (one edge), FederationPoint (N edges) and
// ChurnPoint (N edges whose membership changes mid-run) differ only in
// how they build the fleet, route an event to an edge, and intervene.

// fleet is what a replay runs against: one cloud and n edges, each
// behind its own client/cloud topology.
type fleet struct {
	p     Params
	cloud *Cloud
	edges []*Edge
	topos []*netsim.Topology
}

func newFleet(p Params, cond netsim.Condition, n int, opts ...EdgeOption) *fleet {
	f := &fleet{p: p, cloud: NewCloud(p), edges: make([]*Edge, n), topos: make([]*netsim.Topology, n)}
	for i := range f.edges {
		f.edges[i] = NewEdge(p, opts...)
		f.topos[i] = netsim.NewTopology(cond, p.Seed+uint64(i))
	}
	return f
}

// FleetStats rolls the edges' cache counters up fleet-wide.
type FleetStats struct {
	// Lookups counts CoIC cache queries; Hits the ones answered exact or
	// similar (peer hits included).
	Lookups, Hits uint64
	// PeerHits counts lookups answered by a peer; Published results pushed
	// to their consistent-hash owners; Repaired read-repair inserts (a
	// replica answered a probe its home missed).
	PeerHits, Published, Repaired uint64
}

// HitRatio reports the share of lookups answered from a cache.
func (s FleetStats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// addFederation counts one federation view's publishes and repairs.
func (s *FleetStats) addFederation(fed *cache.Federation) {
	if fed == nil {
		return
	}
	st := fed.Stats()
	s.Published += st.Published
	s.Repaired += st.Repaired
}

// RollUp sums the counters of the given edges and of the federation
// views currently attached to them.
func RollUp(edges []*Edge) FleetStats {
	var s FleetStats
	for _, e := range edges {
		st := e.Stats()
		s.PeerHits += st.PeerHits
		for _, v := range st.Lookups {
			s.Lookups += v
		}
		for _, v := range st.Exact {
			s.Hits += v
		}
		for _, v := range st.Similar {
			s.Hits += v
		}
		s.addFederation(e.Federation())
	}
	return s
}

// SimResult aggregates a trace-driven multi-user simulation.
type SimResult struct {
	Events int
	Errors int
	// CloudFetches counts requests that fell through to the cloud.
	CloudFetches int
	PerTask      map[wire.Task]*metrics.Histogram
	All          *metrics.Histogram
	Outcomes     map[cache.Outcome]int
	Fleet        FleetStats
	// Edge and Cache are the single edge's counters and its store's
	// (RunTrace only).
	Edge  EdgeStats
	Cache cache.Stats
}

// HitRatio reports the share of CoIC lookups answered from cache.
func (r *SimResult) HitRatio() float64 { return r.Fleet.HitRatio() }

// intervention is a timed change to the fleet mid-replay.
type intervention struct {
	at time.Duration
	do func()
}

// replay runs events through the fleet on the discrete-event engine, so
// requests contend for links and share caches in timestamp order. route
// picks the serving edge when an event fires (so it may depend on what
// earlier interventions did); an intervention scheduled for the same
// instant as an event fires first.
func (f *fleet) replay(events []trace.Event, mode Mode, route func(trace.Event) int, changes []intervention) *SimResult {
	// All clients share trunk weights (one network build, many users).
	trunk := dnn.NewEdgeNet(f.p.Classes(), f.p.DNNInput, f.p.Seed).Trunk()
	type seat struct{ user, edge int }
	sessions := map[seat]*Session{}
	sessionFor := func(user, edge int) *Session {
		s, ok := sessions[seat{user, edge}]
		if !ok {
			s = NewSession(&Client{ID: user, Params: f.p, Trunk: trunk}, f.edges[edge], f.cloud, f.topos[edge])
			sessions[seat{user, edge}] = s
		}
		return s
	}

	res := &SimResult{
		PerTask:  map[wire.Task]*metrics.Histogram{wire.TaskRecognize: {}, wire.TaskRender: {}, wire.TaskPano: {}},
		All:      &metrics.Histogram{},
		Outcomes: map[cache.Outcome]int{},
	}

	// Traces render the per-class annotation models: realistic AR
	// overlays, and small enough that a long trace stays cheap to
	// replay (the Figure 2b ladder is exercised by RunFig2b).
	renderModels := f.cloud.AnnotationModelIDs()
	eng := sim.New(epoch)
	for _, c := range changes {
		eng.Schedule(epoch.Add(c.at), c.do)
	}
	for _, ev := range events {
		ev := ev
		eng.Schedule(epoch.Add(ev.At), func() {
			b, _, err := sessionFor(ev.User, route(ev)).Do(context.Background(), eng.Now(), eventTask(ev, renderModels), mode)
			res.Events++
			if err != nil {
				res.Errors++
				return
			}
			if b.Cloud > 0 {
				res.CloudFetches++
			}
			res.PerTask[ev.Task].Record(b.Total())
			res.All.Record(b.Total())
			res.Outcomes[b.Outcome]++
		})
	}
	eng.Run()
	res.Fleet = RollUp(f.edges)
	return res
}

// eventTask is the task a trace event asks for. Every kind's arguments
// are derived from the event; the row ev.Task names reads its own (an
// unknown task is Do's error).
func eventTask(ev trace.Event, renderModels []string) Task {
	return Task{
		Kind:     ev.Task,
		Class:    vision.Class(ev.Object % int(vision.NumClasses)),
		ViewSeed: ev.ViewSeed,
		ModelID:  renderModels[ev.Object%len(renderModels)],
		VideoID:  fmt.Sprintf("video-%d", ev.Object%4),
		Frame:    ev.Frame,
		Viewport: pano.Viewport{Yaw: float64(ev.ViewSeed%628) / 100, FOV: 1.6},
	}
}

// RunTrace replays a workload trace through one edge shared by any
// number of users.
func RunTrace(p Params, cond netsim.Condition, events []trace.Event, mode Mode, opts ...EdgeOption) *SimResult {
	f := newFleet(p, cond, 1, opts...)
	res := f.replay(events, mode, func(trace.Event) int { return 0 }, nil)
	res.Edge = f.edges[0].Stats()
	res.Cache = f.edges[0].Cache.StatsSnapshot().Store
	return res
}
