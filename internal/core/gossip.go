package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/member"
	"github.com/edge-immersion/coic/internal/wire"
)

// This file glues the transport-agnostic member.Agent into the TCP
// EdgeServer: membership frames ride the same peer links as peer cache
// traffic, every view change deterministically rebuilds the
// federation's consistent-hash ring from the sorted alive set, and a
// background migrator re-homes cached keys whenever ownership moves.

// decommissionTimeout bounds the graceful-leave work (draining home keys
// to ring successors, broadcasting member-leave) a cancelled edge does
// before giving up — SIGTERM must not hang on a slow or dead fleet.
const decommissionTimeout = 10 * time.Second

// isFederationFrame reports whether t is edge↔edge federation traffic —
// peer cache frames or membership gossip — rather than client traffic.
// These frames sit on another edge's critical path (or keep the fleet's
// failure detector honest), so the pipeline schedules them as
// interactive and exempts them from tenant rationing.
func isFederationFrame(t wire.MsgType) bool {
	switch t {
	case wire.MsgPeerLookup, wire.MsgPeerInsert,
		wire.MsgMemberPing, wire.MsgMemberAck, wire.MsgMemberGossip, wire.MsgMemberLeave:
		return true
	}
	return false
}

// gossipState bundles what SetupGossip wires together: the agent owning
// the membership view, the federation whose ring tracks it, and the
// migrator that re-homes keys after every ring change.
type gossipState struct {
	agent *member.Agent
	fed   *cache.Federation
	mig   *cache.Migrator

	mu sync.Mutex
	// pending is the oldest ring not yet swept against — if several view
	// changes land between sweeps, diffing the current ring against the
	// oldest covers every move at once.
	pending *cache.Ring
	kick    chan struct{}
}

// SetupGossip joins this edge to a dynamically-membered federation: self
// is its advertised (dialable) address — both its gossip identity and
// its ring position — and seeds are addresses to contact for the initial
// join (typically one or two stable fleet members; self may be listed,
// it is skipped). Unlike SetupFederation the fleet is discovered, not
// declared: the edge boots alone on a single-node ring and grows it as
// gossip finds members. Call before Serve; ServeContext runs the
// protocol and performs the graceful decommission on cancellation.
func (s *EdgeServer) SetupGossip(self string, seeds []string) error {
	if self == "" {
		return fmt.Errorf("core: gossiped edge needs its advertised self address")
	}
	seen := map[string]bool{}
	for _, addr := range seeds {
		if addr == "" {
			return fmt.Errorf("core: empty gossip seed address")
		}
		if seen[addr] {
			return fmt.Errorf("core: duplicate gossip seed %s", addr)
		}
		seen[addr] = true
	}
	fed := cache.NewFederation(self, cache.NewRingVersion([]string{self}, 0, 1))
	fed.SetReplication(s.Replication)
	g := &gossipState{
		fed:  fed,
		mig:  cache.NewMigrator(s.Edge.Cache, fed, s.MigrateRate),
		kick: make(chan struct{}, 1),
	}
	agent, err := member.NewAgent(member.Config{
		Self:     self,
		Seeds:    seeds,
		Interval: s.GossipInterval,
		Probe:    s.memberProbe,
		OnChange: func() { s.syncMembership() },
	})
	if err != nil {
		return err
	}
	g.agent = agent
	s.gossip = g
	s.Edge.SetFederation(fed, true)
	return nil
}

// memberProbe is the member.ProbeFunc transport: one membership frame
// out, one member-ack back, over the peer connection. Any failure —
// dial, backoff, a non-ack reply — reads as an unreachable peer.
func (s *EdgeServer) memberProbe(ctx context.Context, addr string, kind member.Kind, d member.Digest) (member.Digest, error) {
	body, err := digestToWire(d).Marshal()
	if err != nil {
		return member.Digest{}, err
	}
	mt := wire.MsgMemberPing
	switch kind {
	case member.KindGossip:
		mt = wire.MsgMemberGossip
	case member.KindLeave:
		mt = wire.MsgMemberLeave
	}
	reply, err := s.peerLink(addr).roundTrip(ctx, wire.Message{Type: mt, Body: body}, time.Now().Add(peerTimeout))
	if err != nil {
		return member.Digest{}, err
	}
	if reply.Type != wire.MsgMemberAck {
		return member.Digest{}, fmt.Errorf("core: peer %s answered %v with %v", addr, mt, reply.Type)
	}
	m, err := wire.UnmarshalMembership(reply.Body)
	if err != nil {
		return member.Digest{}, err
	}
	return digestFromWire(m), nil
}

// syncMembership is the agent's OnChange hook: when the ring member set
// (every non-dead member — a suspect keeps its arc until death, so one
// dropped probe cannot trigger a migration storm) differs from the
// current ring it registers transports for new members, swaps in a ring
// rebuilt at the view's epoch, retires dead members' routing, and kicks
// the migrator. Serialised on g.mu — change notifications can race in
// from the gossip loop and request workers.
func (s *EdgeServer) syncMembership() {
	g := s.gossip
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	view := g.agent.View()
	members := view.RingMembers()
	cur := g.fed.Ring()
	if sameNodes(cur.Nodes(), members) {
		return
	}
	// Transports first, ring second: routing must never select an owner
	// the federation has no path to.
	memberSet := map[string]bool{}
	for _, id := range members {
		memberSet[id] = true
		if id == g.fed.Self() {
			continue
		}
		pl := s.peerLink(id)
		g.fed.AddPeer(id, cache.Peer{
			Probe:  s.probePeer(pl),
			Insert: s.insertPeer(pl),
		})
	}
	g.fed.SetRing(cache.NewRingVersion(members, 0, view.Epoch()))
	for _, id := range g.fed.Peers() {
		if !memberSet[id] {
			g.fed.RemovePeer(id)
		}
	}
	if g.pending == nil {
		g.pending = cur
	}
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// migrateLoop is the background re-homing worker: each kick sweeps the
// local cache against the oldest un-swept ring, pushing every key whose
// owner set gained members. Runs for the life of the gossip protocol.
func (s *EdgeServer) migrateLoop(ctx context.Context) {
	g := s.gossip
	for {
		select {
		case <-ctx.Done():
			return
		case <-g.kick:
		}
		g.mu.Lock()
		prev := g.pending
		g.pending = nil
		g.mu.Unlock()
		if prev != nil {
			g.mig.Sweep(ctx, prev)
		}
	}
}

// Decommission performs the graceful leave: drain every co-owned key to
// the members that inherit it once this edge is gone, then broadcast
// member-leave so peers drop us without a suspicion phase. Bounded by
// decommissionTimeout; returns how many keys the drain pushed. Invoked
// automatically by ServeContext when its context is cancelled (the
// SIGTERM path); calling it twice is a no-op.
func (s *EdgeServer) Decommission() int {
	g := s.gossip
	if g == nil || g.agent.View().Left() {
		return 0
	}
	ctx, cancel := context.WithTimeout(context.Background(), decommissionTimeout)
	defer cancel()
	// Drain before announcing: peers keep routing reads to us while the
	// keys copy out, and only stop once they merge the leave.
	moved := g.mig.Drain(ctx)
	g.agent.Leave(ctx)
	return moved
}

// RingVersion reports the version of the federation's consistent-hash
// ring (0 when standalone). Under
// gossip it equals the view epoch of the last rebuild and is node-local:
// versions grow monotonically on each edge but need not match across the
// fleet — ring contents are what converge.
func (s *EdgeServer) RingVersion() uint64 {
	if fed := s.Edge.Federation(); fed != nil {
		return fed.RingVersion()
	}
	return 0
}

// MemberCounts reports the fleet as this edge sees it: gossiped edges
// count their live view; statically federated edges report the declared
// ring as all-alive (the static topology has no failure detector); a
// standalone edge is a fleet of one.
func (s *EdgeServer) MemberCounts() (alive, suspect, dead int) {
	if g := s.gossip; g != nil {
		return g.agent.View().Counts()
	}
	if fed := s.Edge.Federation(); fed != nil {
		if r := fed.Ring(); r != nil && r.Len() > 0 {
			return r.Len(), 0, 0
		}
	}
	return 1, 0, 0
}

// MigratedKeys reports how many cached keys the migrator has re-homed
// (sweeps after ring changes plus the decommission drain).
func (s *EdgeServer) MigratedKeys() uint64 {
	if g := s.gossip; g != nil {
		return g.mig.Migrated()
	}
	return 0
}

// sameNodes reports whether two sorted node lists are identical.
func sameNodes(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// digestToWire converts the member package's native digest to its wire
// frame body (statuses share the same numeric encoding by construction).
func digestToWire(d member.Digest) wire.Membership {
	m := wire.Membership{From: d.From, Epoch: d.Epoch}
	for _, e := range d.Entries {
		m.Members = append(m.Members, wire.MemberEntry{
			ID:          e.ID,
			Incarnation: e.Incarnation,
			Status:      uint8(e.Status),
		})
	}
	return m
}

// digestFromWire is the inverse; the wire decoder has already validated
// every status.
func digestFromWire(m wire.Membership) member.Digest {
	d := member.Digest{From: m.From, Epoch: m.Epoch}
	for _, e := range m.Members {
		d.Entries = append(d.Entries, member.Entry{
			ID:          e.ID,
			Incarnation: e.Incarnation,
			Status:      member.Status(e.Status),
		})
	}
	return d
}
