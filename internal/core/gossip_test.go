package core

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/wire"
)

// gossipEdge is one TCP edge of a gossip-membered fleet, with handles to
// stop it gracefully (the SIGTERM decommission path) or crash it hard
// (listener and every accepted connection severed, gossip silenced, no
// leave broadcast — what a power failure looks like to the peers).
type gossipEdge struct {
	addr string
	edge *Edge
	srv  *EdgeServer
	done chan error

	cancel context.CancelFunc

	mu    sync.Mutex
	ln    net.Listener
	conns []net.Conn
}

// stop is the graceful path: cancel the serve context and wait for
// ServeContext to drain, decommission and return.
func (g *gossipEdge) stop(t *testing.T) {
	t.Helper()
	g.cancel()
	select {
	case err := <-g.done:
		if err != nil {
			t.Fatalf("edge %s: %v", g.addr, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("edge %s did not shut down", g.addr)
	}
}

// kill is the crash: no decommission runs (the serve context stays
// live), the listener and all accepted connections are torn down so
// peers' probes fail from now on.
func (g *gossipEdge) kill() {
	g.mu.Lock()
	g.ln.Close()
	for _, c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	<-g.done
}

// startGossipEdge boots one edge with gossip membership at a fast test
// cadence, tuned by each of tune, and serves it until stopped or killed.
func startGossipEdge(t *testing.T, p Params, cloudAddr string, seeds []string, rf int, tune ...func(*EdgeServer)) *gossipEdge {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &gossipEdge{addr: ln.Addr().String(), ln: ln, done: make(chan error, 1)}
	g.edge = NewEdge(p)
	g.srv = &EdgeServer{
		Edge:           g.edge,
		CloudAddr:      cloudAddr,
		Replication:    rf,
		GossipInterval: 25 * time.Millisecond,
		// Track accepted connections so kill() can sever them: a crashed
		// process drops its sockets, a closed listener alone does not.
		WrapClient: func(c net.Conn) net.Conn {
			g.mu.Lock()
			g.conns = append(g.conns, c)
			g.mu.Unlock()
			return c
		},
	}
	for _, f := range tune {
		f(g.srv)
	}
	if err := g.srv.SetupGossip(g.addr, seeds); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	go func() { g.done <- g.srv.ServeContext(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		ln.Close()
		select {
		case <-g.done:
		case <-time.After(5 * time.Second):
		}
	})
	return g
}

// startGossipFleet boots a cloud and n edges, each tuned by tune, all
// seeded at the first edge, and waits until every member sees the full
// fleet alive.
func startGossipFleet(t *testing.T, p Params, n, rf int, tune ...func(*EdgeServer)) (fleet []*gossipEdge, cloudAddr string) {
	t.Helper()
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloudLn.Close() })
	go (&CloudServer{Cloud: NewCloud(p)}).Serve(cloudLn)
	cloudAddr = cloudLn.Addr().String()

	seedEdge := startGossipEdge(t, p, cloudAddr, nil, rf, tune...)
	fleet = []*gossipEdge{seedEdge}
	for i := 1; i < n; i++ {
		fleet = append(fleet, startGossipEdge(t, p, cloudAddr, []string{seedEdge.addr}, rf, tune...))
	}
	waitFleetAlive(t, fleet, n)
	return fleet, cloudAddr
}

// waitFleetAlive waits until every listed edge counts want members alive
// and its ring spans exactly them.
func waitFleetAlive(t *testing.T, fleet []*gossipEdge, want int) {
	t.Helper()
	for _, g := range fleet {
		g := g
		waitFor(t, "fleet convergence", func() bool {
			alive, _, _ := g.srv.MemberCounts()
			return alive == want && g.edge.Federation().Ring().Len() == want
		})
	}
}

// warmModels renders every annotation model through a client on the
// given edge and waits until each publish has landed on every ring
// owner, so later assertions see a fully replicated fleet.
func warmModels(t *testing.T, p Params, fleet []*gossipEdge, via int, rf int) []string {
	t.Helper()
	cli, err := dialEdge(fleet[via].addr, NewClient(100+via, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	models := NewCloud(p).AnnotationModelIDs()
	for _, id := range models {
		if _, err := cli.Render(id); err != nil {
			t.Fatal(err)
		}
	}
	addrs := make([]string, len(fleet))
	edgeAt := map[string]*Edge{}
	for i, g := range fleet {
		addrs[i] = g.addr
		edgeAt[g.addr] = g.edge
	}
	ring := cache.NewRing(addrs, 0)
	for _, id := range models {
		desc := ModelDescriptor(id)
		for _, owner := range ring.OwnersFor(desc.Key(), rf) {
			owner := owner
			waitFor(t, "publish to land on "+owner, func() bool {
				_, res := edgeAt[owner].PeerProbe(-1, desc)
				return res.Hit()
			})
		}
	}
	return models
}

func TestGossipFleetConvergesFromOneSeed(t *testing.T) {
	p := testParams()
	fleet, _ := startGossipFleet(t, p, 3, 2)

	// All three views agree, nobody is suspect or dead, and the rings
	// carry identical membership (versions are node-local and may differ).
	want := map[string]bool{}
	for _, g := range fleet {
		want[g.addr] = true
	}
	for _, g := range fleet {
		alive, suspect, dead := g.srv.MemberCounts()
		if alive != 3 || suspect != 0 || dead != 0 {
			t.Fatalf("%s counts = %d/%d/%d, want 3/0/0", g.addr, alive, suspect, dead)
		}
		nodes := g.edge.Federation().Ring().Nodes()
		if len(nodes) != 3 {
			t.Fatalf("%s ring spans %v", g.addr, nodes)
		}
		for _, n := range nodes {
			if !want[n] {
				t.Fatalf("%s ring contains stranger %s", g.addr, n)
			}
		}
		if v := g.srv.RingVersion(); v < 2 {
			t.Fatalf("%s ring version = %d, want >= 2 (grew from the solo ring)", g.addr, v)
		}
	}

	// The discovered federation routes like a declared one: a render
	// through any member works and is cached.
	cli, err := dialEdge(fleet[1].addr, NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	id := NewCloud(p).AnnotationModelIDs()[0]
	if _, err := cli.Render(id); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Render(id); err != nil {
		t.Fatal(err)
	}
	st := fleet[1].edge.Stats()
	if st.Exact[wire.TaskRender] == 0 {
		t.Fatal("repeat render missed the local cache")
	}
}

func TestGossipJoinMigratesOwnershipWithoutKeyLoss(t *testing.T) {
	p := testParams()
	fleet, cloudAddr := startGossipFleet(t, p, 2, 2)
	models := warmModels(t, p, fleet, 0, 2)

	// A third edge joins via the seed. The fleet converges and the keys
	// the newcomer now co-owns are pushed to it by migration sweeps.
	joiner := startGossipEdge(t, p, cloudAddr, []string{fleet[0].addr}, 2)
	fleet = append(fleet, joiner)
	waitFleetAlive(t, fleet, 3)

	addrs := []string{fleet[0].addr, fleet[1].addr, joiner.addr}
	ring := cache.NewRing(addrs, 0)
	owned := 0
	for _, id := range models {
		desc := ModelDescriptor(id)
		for _, owner := range ring.OwnersFor(desc.Key(), 2) {
			if owner != joiner.addr {
				continue
			}
			owned++
			waitFor(t, "migration of "+id+" to the joiner", func() bool {
				_, res := joiner.edge.PeerProbe(-1, desc)
				return res.Hit()
			})
		}
	}
	if owned > 0 {
		var migrated uint64
		for _, g := range fleet[:2] {
			migrated += g.srv.MigratedKeys()
		}
		if migrated == 0 {
			t.Fatal("keys re-homed to the joiner but no sweep counted them")
		}
	}

	// No key was lost in the shuffle: replaying the workload through the
	// other original member stays inside the fleet — zero new cloud
	// round trips across every edge.
	before := fleet[0].srv.CloudFetches() + fleet[1].srv.CloudFetches() + joiner.srv.CloudFetches()
	cli, err := dialEdge(fleet[1].addr, NewClient(7, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, id := range models {
		if _, err := cli.Render(id); err != nil {
			t.Fatal(err)
		}
	}
	after := fleet[0].srv.CloudFetches() + fleet[1].srv.CloudFetches() + joiner.srv.CloudFetches()
	if after != before {
		t.Fatalf("join leaked %d requests to the cloud", after-before)
	}
}

func TestGossipDeathConvergesAndLosesNoKeys(t *testing.T) {
	p := testParams()
	fleet, _ := startGossipFleet(t, p, 4, 2)
	models := warmModels(t, p, fleet, 0, 2)

	// Crash an edge that is not the warm edge (0) nor the replay edge
	// (1): its sockets drop mid-fleet with no leave broadcast.
	victim := fleet[2]
	victim.kill()
	survivors := []*gossipEdge{fleet[0], fleet[1], fleet[3]}

	// Every survivor independently runs suspect → dead and shrinks its
	// ring to the three live members.
	waitFleetAlive(t, survivors, 3)
	for _, g := range survivors {
		_, _, dead := g.srv.MemberCounts()
		if dead == 0 {
			t.Fatalf("%s converged without declaring the victim dead", g.addr)
		}
		for _, n := range g.edge.Federation().Ring().Nodes() {
			if n == victim.addr {
				t.Fatalf("%s still routes to the dead member", g.addr)
			}
		}
	}

	// rf=2 means every published key survives on a live replica: the full
	// replay through a survivor is answered inside the fleet — locally,
	// by a replica probe, or by a key migration/read-repair copy — with
	// zero new cloud round trips.
	var before uint64
	for _, g := range survivors {
		before += g.srv.CloudFetches()
	}
	cli, err := dialEdge(fleet[1].addr, NewClient(8, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, id := range models {
		if _, err := cli.Render(id); err != nil {
			t.Fatal(err)
		}
	}
	var after uint64
	for _, g := range survivors {
		after += g.srv.CloudFetches()
	}
	if after != before {
		t.Fatalf("death lost %d keys to the cloud", after-before)
	}
}

func TestGossipDecommissionDrainsBeforeExit(t *testing.T) {
	p := testParams()
	fleet, _ := startGossipFleet(t, p, 3, 1)
	models := warmModels(t, p, fleet, 0, 1)

	// With rf=1 each key lives at its home (plus the warm edge's local
	// copy): a member that vanished without draining would take its arc
	// of the keyspace with it. Decommission instead: home keys must land
	// on their new owners before the process exits.
	victim := fleet[2]
	addrs := []string{fleet[0].addr, fleet[1].addr, victim.addr}
	ring := cache.NewRing(addrs, 0)
	next := ring.Without(victim.addr)
	type moved struct {
		id    string
		owner string
	}
	var handoffs []moved
	for _, id := range models {
		if ring.Owner(ModelDescriptor(id).Key()) == victim.addr {
			handoffs = append(handoffs, moved{id, next.Owner(ModelDescriptor(id).Key())})
		}
	}

	victim.stop(t) // the SIGTERM path: drain, leave, exit

	if len(handoffs) > 0 && victim.srv.MigratedKeys() == 0 {
		t.Fatal("victim owned keys but drained none")
	}
	edgeAt := map[string]*Edge{fleet[0].addr: fleet[0].edge, fleet[1].addr: fleet[1].edge}
	for _, h := range handoffs {
		desc := ModelDescriptor(h.id)
		if _, res := edgeAt[h.owner].PeerProbe(-1, desc); !res.Hit() {
			t.Fatalf("%s was not drained to its successor %s", h.id, h.owner)
		}
	}

	// The leave broadcast retires the victim with no suspicion phase and
	// the survivors' rings shrink.
	survivors := fleet[:2]
	waitFleetAlive(t, survivors, 2)
	for _, g := range survivors {
		_, _, dead := g.srv.MemberCounts()
		if dead == 0 {
			t.Fatalf("%s never saw the leave", g.addr)
		}
	}
}

func TestMembershipFramesRejectedWithoutGossip(t *testing.T) {
	p := testParams()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv := &EdgeServer{Edge: NewEdge(p)}
	go srv.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := (wire.Membership{From: "stranger:1", Epoch: 1}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgMemberPing, RequestID: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.MsgError {
		t.Fatalf("gossip-less edge answered %v, want error", reply.Type)
	}
}

func TestMembershipFrameAnsweredWithAck(t *testing.T) {
	p := testParams()
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudLn.Close()
	go (&CloudServer{Cloud: NewCloud(p)}).Serve(cloudLn)
	g := startGossipEdge(t, p, cloudLn.Addr().String(), nil, 1)

	conn, err := net.Dial("tcp", g.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := (wire.Membership{
		From:    "newcomer:1",
		Epoch:   1,
		Members: []wire.MemberEntry{{ID: "newcomer:1", Incarnation: 1, Status: wire.MemberAlive}},
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgMemberPing, RequestID: 9, Body: body}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.MsgMemberAck || reply.RequestID != 9 {
		t.Fatalf("reply = %v id %d, want member-ack id 9", reply.Type, reply.RequestID)
	}
	ack, err := wire.UnmarshalMembership(reply.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ack.From != g.addr {
		t.Fatalf("ack.From = %q, want %q", ack.From, g.addr)
	}
	seen := map[string]uint8{}
	for _, m := range ack.Members {
		seen[m.ID] = m.Status
	}
	if seen[g.addr] != wire.MemberAlive || seen["newcomer:1"] != wire.MemberAlive {
		t.Fatalf("ack did not merge the newcomer: %+v", ack.Members)
	}
}
