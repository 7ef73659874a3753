package core

import (
	"context"
	"fmt"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/wire"
)

// This file assembles virtual-time edge federations: N edges partition
// the descriptor keyspace via consistent hashing, probe the key's home
// edge on a local miss (one cheap edge↔edge hop, modelled on a netsim
// Mesh), publish freshly computed results to the home, and optionally
// replicate peer hits locally. The TCP counterpart lives in upstream.go
// — both drive the same cache.Federation routing policy.

// FederationConfig shapes a virtual-time federation.
type FederationConfig struct {
	// Mesh models the edge↔edge links; nil charges only the remote
	// EdgeLookupTime per hop (free network — useful for isolating cache
	// effects from transport).
	Mesh *netsim.Mesh
	// Replicate adopts peer hits into the probing edge's local cache.
	Replicate bool
	// Vnodes tunes ring smoothness (cache.DefaultVnodes when <= 0).
	Vnodes int
}

// EdgeID names edge i in a federation; ring ownership and experiment
// output both use these names.
func EdgeID(i int) string { return fmt.Sprintf("edge-%d", i) }

// Federate wires the given edges into one federation. Edge i is named
// EdgeID(i); the mesh, when present, must span at least len(edges) nodes.
// Existing cache contents are untouched — federating warm edges is legal.
func Federate(edges []*Edge, cfg FederationConfig) {
	if len(edges) == 0 {
		panic("core: federating zero edges")
	}
	if cfg.Mesh != nil && cfg.Mesh.Size() < len(edges) {
		panic(fmt.Sprintf("core: mesh spans %d edges, federation needs %d", cfg.Mesh.Size(), len(edges)))
	}
	ids := make([]string, len(edges))
	for i := range edges {
		ids[i] = EdgeID(i)
	}
	ring := cache.NewRing(ids, cfg.Vnodes)
	for i, e := range edges {
		fed := cache.NewFederation(EdgeID(i), ring)
		for j, p := range edges {
			if j == i {
				continue
			}
			var link *netsim.Duplex
			if cfg.Mesh != nil {
				link = cfg.Mesh.Link(i, j)
			}
			fed.AddPeer(EdgeID(j), virtualPeer(p, link))
		}
		e.SetFederation(fed, cfg.Replicate)
	}
}

// virtualPeer is the virtual-time transport to remote edge p over link.
func virtualPeer(p *Edge, link *netsim.Duplex) cache.Peer {
	return cache.Peer{Probe: peerProbe(p, link), Insert: peerInsert(p)}
}

// peerProbe builds the virtual-time probe of remote edge p over link:
// ship a PeerLookup frame, run the remote local-only lookup, ship the
// PeerReply back. Costs are contention-free link estimates — edge↔edge
// links are fat enough that FIFO queueing there is second-order, and an
// estimate keeps probes free of shared queueing state, so federated
// experiments stay deterministic under any event interleaving.
func peerProbe(p *Edge, link *netsim.Duplex) cache.PeerProbe {
	return func(_ context.Context, requester int, task uint8, desc feature.Descriptor) ([]byte, cache.LookupResult, time.Duration) {
		cost := p.Params.EdgeLookupTime
		if link != nil {
			if body, err := (wire.PeerLookup{Task: wire.Task(task), Desc: desc}).Marshal(); err == nil {
				cost += link.Up.EstimateCost((wire.Message{Type: wire.MsgPeerLookup, Body: body}).WireSize())
			}
		}
		v, res := p.PeerProbe(requester, desc)
		if link != nil {
			if body, err := (wire.PeerReply{Outcome: outcomeToProbe(res.Outcome), Distance: res.Distance, Result: v}).Marshal(); err == nil {
				cost += link.Down.EstimateCost((wire.Message{Type: wire.MsgPeerReply, Body: body}).WireSize())
			}
		}
		return v, res, cost
	}
}

// peerInsert builds the publish path to remote edge p. Publishing is off
// the requester's critical path, so no cost is returned; the transfer
// itself is modelled as background replication traffic.
func peerInsert(p *Edge) cache.PeerInsert {
	return func(desc feature.Descriptor, value []byte, cost float64) {
		p.AdoptRemote(desc, value, cost)
	}
}

// outcomeToProbe maps a cache outcome onto its wire encoding.
func outcomeToProbe(o cache.Outcome) uint8 {
	switch o {
	case cache.OutcomeExact:
		return wire.ProbeExact
	case cache.OutcomeSimilar:
		return wire.ProbeSimilar
	default:
		return wire.ProbeMiss
	}
}

// probeToOutcome maps a wire probe outcome back to a cache outcome.
func probeToOutcome(o uint8) cache.Outcome {
	switch o {
	case wire.ProbeExact:
		return cache.OutcomeExact
	case wire.ProbeSimilar:
		return cache.OutcomeSimilar
	default:
		return cache.OutcomeMiss
	}
}
