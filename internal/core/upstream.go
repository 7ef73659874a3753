package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/wire"
)

// This file is the edge's outbound side: the multiplexed link to the
// cloud (behind the upstream gate) and the persistent links to fellow
// edges that carry federation probes, publishes and gossip.

// Link constants: the only ways the edge's two outbound link kinds
// differ (MuxClient, the third user, caps its dial at clientDialTimeout
// and never re-dials). cloudDialTimeout bounds establishing the upstream
// connection, and a lost cloud link is re-dialed by the very next miss —
// there is nowhere else to send it. peerTimeout bounds how long a miss
// waits for an unresponsive peer (dialing and the round trip together);
// peerBackoff is how long a failed peer is then left alone, so an
// unreachable edge degrades this one to single-edge behaviour instead of
// stalling every miss on dial timeouts.
const (
	cloudDialTimeout = 10 * time.Second
	peerTimeout      = 2 * time.Second
	peerBackoff      = 10 * time.Second
)

// edgeHello opens the edge's outbound links: completion-order replies,
// and no tenant claim — the edge runs as the far end's default tenant,
// since per-client tenancy is enforced here, not re-litigated per fetch.
var edgeHello = wire.Hello{
	Version: wire.HelloVersion,
	Mode:    wire.HelloModeCoIC,
	Flags:   wire.HelloFlagUnordered,
}

// peerLink returns the persistent link to a fellow edge, creating it on
// first use. Cache probes, publishes and membership gossip all share it,
// pipelined — so the failure detector exercises exactly the path data
// traffic needs alive, and a ping never waits behind a probe.
func (s *EdgeServer) peerLink(addr string) *link {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.peers == nil {
		s.peers = map[string]*link{}
	}
	pl := s.peers[addr]
	if pl == nil {
		pl = &link{
			addr: addr, name: "peer " + addr, wrap: s.WrapPeer, hello: edgeHello,
			dialCap: peerTimeout, backoff: peerBackoff, redial: true,
		}
		s.peers[addr] = pl
	}
	return pl
}

// SetupFederation joins this edge to a federation: self is this edge's
// advertised (dialable) address — its federation identity — and peerAddrs
// are the other members'. All members must name each other consistently,
// since the consistent-hash ring is built over exactly these strings and
// every edge must agree on each key's home. Call before Serve. It
// rejects membership mistakes (empty self, self listed as a peer,
// duplicate peers) as errors — these come straight from CLI flags.
func (s *EdgeServer) SetupFederation(self string, peerAddrs []string) error {
	if self == "" {
		return fmt.Errorf("core: federated edge needs its advertised self address")
	}
	seen := map[string]bool{self: true}
	for _, addr := range peerAddrs {
		if addr == self {
			return fmt.Errorf("core: federation peer list contains this edge itself (%s); list only the other members", self)
		}
		if seen[addr] {
			return fmt.Errorf("core: duplicate federation peer %s", addr)
		}
		seen[addr] = true
	}
	nodes := append([]string{self}, peerAddrs...)
	ring := cache.NewRing(nodes, 0)
	fed := cache.NewFederation(self, ring)
	fed.SetReplication(s.Replication)
	for _, addr := range peerAddrs {
		pl := s.peerLink(addr)
		fed.AddPeer(addr, cache.Peer{
			Probe:  s.probePeer(pl),
			Insert: s.insertPeer(pl),
		})
	}
	s.Edge.SetFederation(fed, true)
	return nil
}

// probePeer builds the TCP probe of one peer: a MsgPeerLookup round trip
// bounded by the requesting caller's context. Errors (unreachable peer,
// corrupt reply, expired caller) read as misses — the caller falls back
// to the cloud, degrading to single-edge behaviour. Cost is zero because
// TCP mode measures wall-clock time, not virtual time.
func (s *EdgeServer) probePeer(pl *link) cache.PeerProbe {
	return func(ctx context.Context, requester int, task uint8, desc feature.Descriptor) ([]byte, cache.LookupResult, time.Duration) {
		miss := cache.LookupResult{Outcome: cache.OutcomeMiss}
		body, err := (wire.PeerLookup{Task: wire.Task(task), Desc: desc}).Marshal()
		if err != nil {
			return nil, miss, 0
		}
		reply, err := pl.roundTrip(ctx, wire.Message{Type: wire.MsgPeerLookup, Body: body}, time.Now().Add(peerTimeout))
		if err != nil || reply.Type != wire.MsgPeerReply {
			return nil, miss, 0
		}
		pr, err := wire.UnmarshalPeerReply(reply.Body)
		if err != nil || pr.Outcome == wire.ProbeMiss {
			return nil, miss, 0
		}
		return pr.Result, cache.LookupResult{
			Outcome:  probeToOutcome(pr.Outcome),
			Distance: pr.Distance,
		}, 0
	}
}

// insertPeer builds the publish path to one peer: a MsgPeerInsert posted
// on the peer link — written and forgotten, its ack dropped by the read
// loop. The write runs on its own goroutine, keeping replication off the
// client's miss reply path (the result is already cached locally; the
// client must not wait out a peer dial or a shaped transfer), and is
// deliberately detached from the requesting context — the request that
// computed the value may be long gone. Publish failures are dropped
// silently — replication is best-effort.
func (s *EdgeServer) insertPeer(pl *link) cache.PeerInsert {
	return func(desc feature.Descriptor, value []byte, cost float64) {
		body, err := (wire.PeerInsert{Desc: desc, Cost: cost, Value: value}).Marshal()
		if err != nil {
			return
		}
		go pl.post(wire.Message{Type: wire.MsgPeerInsert, Body: body}, time.Now().Add(peerTimeout))
	}
}

// roundTripCloud forwards one message upstream over the multiplexed
// cloud link and awaits its reply. One deadline of FetchTimeout covers
// the whole fetch — waiting for an upstream slot, dialing, and the round
// trip itself — so the caller (and any coalesced group behind it) is
// never wedged longer than the configured timeout; on expiry the link
// retires its connection, failing every other pending fetch fast too,
// and the next miss re-dials. There is no automatic retry. ctx aborts
// the fetch early: for a coalesced miss it is the flight context, which
// dies only when the last interested waiter departs
// (last-waiter-cancels), and its death withdraws the fetch and forwards
// the cancellation upstream. tenant is who the slot wait is charged to:
// the flight leader's tenant for coalesced misses, so the gate's fair
// share follows whoever's quota paid for the fetch.
func (s *EdgeServer) roundTripCloud(ctx context.Context, tenant string, msg wire.Message) (wire.Message, error) {
	s.mu.Lock()
	if s.cloud == nil {
		limit := s.MaxUpstream
		if limit <= 0 {
			limit = DefaultWorkers + DefaultQueueDepth
		}
		// The gate caps concurrent round trips so the edge never exceeds
		// the cloud's per-connection admission budget (which would surface
		// as hard overload errors to coalesced waiters), and partitions
		// the slots across tenants by weighted share — the upstream link
		// is the one bottleneck every tenant's misses meet, and the
		// per-connection scheduler cannot see across connections.
		s.gate = newUpstreamGate(limit, s.Tenants)
		s.cloud = &link{
			addr: s.CloudAddr, name: "cloud", wrap: s.WrapCloud, hello: edgeHello,
			dialCap: cloudDialTimeout, redial: true,
		}
	}
	gate, cloud := s.gate, s.cloud
	s.mu.Unlock()
	s.cloudFetches.Add(1)

	timeout := s.FetchTimeout
	if timeout <= 0 {
		timeout = DefaultFetchTimeout
	}
	deadline := time.Now().Add(timeout)
	slotTimer := time.NewTimer(timeout)
	defer slotTimer.Stop()
	if err := gate.acquire(ctx, tenant, slotTimer.C); err != nil {
		if errors.Is(err, errUpstreamSaturated) {
			return wire.Message{}, fmt.Errorf("core: upstream saturated for %v (%d fetches in flight)", timeout, gate.slots)
		}
		return wire.Message{}, err
	}
	defer gate.release(tenant)
	return cloud.roundTrip(ctx, msg, deadline)
}
