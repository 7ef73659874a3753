package core

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/member"
	"github.com/edge-immersion/coic/internal/wire"
)

// fakeEnd is a scripted far end for link tests: it counts accepted
// connections, acks every hello, and hands each other frame to handle
// together with a reply func that is safe to call from any goroutine, at
// any later time — which is what lets a test hold one reply back.
type fakeEnd struct {
	addr     string
	accepted atomic.Int32
}

func startFakeEnd(t *testing.T, handle func(msg wire.Message, reply func(wire.Message))) *fakeEnd {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	f := &fakeEnd{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepted.Add(1)
			go func() {
				defer conn.Close()
				var wmu sync.Mutex
				reply := func(m wire.Message) {
					wmu.Lock()
					defer wmu.Unlock()
					wire.WriteMessage(conn, m)
				}
				for {
					msg, err := wire.ReadMessage(conn)
					if err != nil {
						return
					}
					if msg.Type == wire.MsgHello {
						reply(wire.Message{Type: wire.MsgHello, RequestID: msg.RequestID})
						continue
					}
					handle(msg, reply)
				}
			}()
		}
	}()
	return f
}

func peerHit(id uint64, tag byte) wire.Message {
	body, _ := (wire.PeerReply{Outcome: wire.ProbeExact, Result: []byte{tag}}).Marshal()
	return wire.Message{Type: wire.MsgPeerReply, RequestID: id, Body: body}
}

// probe runs one federated lookup against the fake peer through the
// edge's real probe transport, returning the value it resolved to.
func probe(ctx context.Context, es *EdgeServer, addr string, key string) []byte {
	v, _, _ := es.probePeer(es.peerLink(addr))(ctx, 0, uint8(wire.TaskRender), feature.NewHash([]byte(key)))
	return v
}

// TestPeerLinkProbesCompleteOutOfOrder: two concurrent probes to one
// peer overlap on the wire — the second completes while the first's
// reply is still held back. (The lock-step peer connection this replaced
// serialised them: the second could not even be sent.)
func TestPeerLinkProbesCompleteOutOfOrder(t *testing.T) {
	var mu sync.Mutex
	var held func()
	seen := make(chan struct{}, 2)
	peer := startFakeEnd(t, func(msg wire.Message, reply func(wire.Message)) {
		mu.Lock()
		first := held == nil
		if first {
			held = func() { reply(peerHit(msg.RequestID, 1)) }
		}
		mu.Unlock()
		if !first {
			reply(peerHit(msg.RequestID, 2))
		}
		seen <- struct{}{}
	})
	es := &EdgeServer{Edge: NewEdge(testParams())}
	ctx := context.Background()

	slow := make(chan []byte, 1)
	go func() { slow <- probe(ctx, es, peer.addr, "slow") }()
	<-seen // the first probe is on the far side, unanswered

	if v := probe(ctx, es, peer.addr, "fast"); len(v) != 1 || v[0] != 2 {
		t.Fatalf("second probe = %v, want the second reply while the first is held", v)
	}
	select {
	case v := <-slow:
		t.Fatalf("held-back probe returned %v before its reply was released", v)
	default:
	}
	mu.Lock()
	held()
	mu.Unlock()
	if v := <-slow; len(v) != 1 || v[0] != 1 {
		t.Fatalf("first probe = %v, want its own (late) reply", v)
	}
	if n := peer.accepted.Load(); n != 1 {
		t.Fatalf("peer accepted %d connections, want both probes on one", n)
	}
}

// TestPeerLinkCancelledProbeKeepsSocket: a probe whose caller departs
// mid-flight forgets its slot and sends a cancel frame naming it — the
// connection survives and the next probe reuses it.
func TestPeerLinkCancelledProbeKeepsSocket(t *testing.T) {
	arrived := make(chan uint64, 1)
	cancelled := make(chan uint64, 1)
	answer := atomic.Bool{}
	peer := startFakeEnd(t, func(msg wire.Message, reply func(wire.Message)) {
		switch {
		case msg.Type == wire.MsgCancel:
			cr, _ := wire.UnmarshalCancelRequest(msg.Body)
			cancelled <- cr.TargetID
			reply(wire.Message{Type: wire.MsgCancel, RequestID: msg.RequestID})
		case answer.Load():
			reply(peerHit(msg.RequestID, 7))
		default:
			arrived <- msg.RequestID // swallowed: never answered
		}
	})
	es := &EdgeServer{Edge: NewEdge(testParams())}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []byte, 1)
	go func() { done <- probe(ctx, es, peer.addr, "doomed") }()
	id := <-arrived
	cancel()
	if v := <-done; v != nil {
		t.Fatalf("cancelled probe resolved to %v, want a miss", v)
	}
	select {
	case target := <-cancelled:
		if target != id {
			t.Fatalf("cancel frame names request %d, want %d", target, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no cancel frame reached the peer")
	}

	answer.Store(true)
	if v := probe(context.Background(), es, peer.addr, "next"); len(v) != 1 || v[0] != 7 {
		t.Fatalf("probe after a cancelled one = %v, want a hit", v)
	}
	if n := peer.accepted.Load(); n != 1 {
		t.Fatalf("peer accepted %d connections, want 1: a cancelled probe must not cost the socket", n)
	}
}

// TestPeerLinkGossipPingOverlapsProbe: membership pings share the peer
// link with cache probes but never queue behind one.
func TestPeerLinkGossipPingOverlapsProbe(t *testing.T) {
	seen := make(chan struct{}, 1)
	peer := startFakeEnd(t, func(msg wire.Message, reply func(wire.Message)) {
		if msg.Type != wire.MsgMemberPing {
			seen <- struct{}{} // the probe: swallowed
			return
		}
		body, _ := (wire.Membership{From: "fake:1", Epoch: 3}).Marshal()
		reply(wire.Message{Type: wire.MsgMemberAck, RequestID: msg.RequestID, Body: body})
	})
	es := &EdgeServer{Edge: NewEdge(testParams())}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go probe(ctx, es, peer.addr, "outstanding")
	<-seen

	start := time.Now()
	ack, err := es.memberProbe(context.Background(), peer.addr, member.KindPing, member.Digest{From: "me:1", Epoch: 1})
	if err != nil {
		t.Fatalf("ping behind an outstanding probe: %v", err)
	}
	if ack.From != "fake:1" || ack.Epoch != 3 {
		t.Fatalf("ack = %+v", ack)
	}
	if waited := time.Since(start); waited > peerTimeout/2 {
		t.Fatalf("ping took %v — it waited for the probe ahead of it", waited)
	}
}

// TestLinkTimeoutDropsGenerationAndRedials: when one call times out the
// whole generation is retired — every other pending call fails at once
// instead of waiting out its own deadline — and the next call re-dials;
// with a back-off configured, calls inside the window fail without
// touching the network.
func TestLinkTimeoutDropsGenerationAndRedials(t *testing.T) {
	answer := atomic.Bool{}
	swallowed := make(chan struct{}, 2)
	end := startFakeEnd(t, func(msg wire.Message, reply func(wire.Message)) {
		if answer.Load() {
			reply(peerHit(msg.RequestID, 9))
		} else {
			swallowed <- struct{}{}
		}
	})
	l := &link{addr: end.addr, name: "fake", hello: edgeHello, dialCap: 5 * time.Second, redial: true}
	ctx := context.Background()
	msg := wire.Message{Type: wire.MsgPeerLookup}

	patient := make(chan error, 1)
	go func() {
		_, err := l.roundTrip(ctx, msg, time.Now().Add(time.Minute))
		patient <- err
	}()
	<-swallowed
	if _, err := l.roundTrip(ctx, msg, time.Now().Add(50*time.Millisecond)); err == nil {
		t.Fatal("call against a mute far end succeeded")
	}
	select {
	case err := <-patient:
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("pending call failed with %v, want ErrConnClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call still waiting after the generation was dropped")
	}

	answer.Store(true)
	reply, err := l.roundTrip(ctx, msg, time.Now().Add(5*time.Second))
	if err != nil || reply.Type != wire.MsgPeerReply {
		t.Fatalf("call after the drop = %v, %v; want a fresh generation to answer", reply.Type, err)
	}
	if n := end.accepted.Load(); n != 2 {
		t.Fatalf("far end accepted %d connections, want 2 (one re-dial)", n)
	}

	// Same fault with a fail-fast window: no re-dial until it closes.
	answer.Store(false)
	b := &link{addr: end.addr, name: "fake", hello: edgeHello, dialCap: 5 * time.Second, backoff: time.Minute, redial: true}
	if _, err := b.roundTrip(ctx, msg, time.Now().Add(50*time.Millisecond)); err == nil {
		t.Fatal("call against a mute far end succeeded")
	}
	before := end.accepted.Load()
	answer.Store(true)
	if _, err := b.roundTrip(ctx, msg, time.Now().Add(5*time.Second)); err == nil {
		t.Fatal("call inside the back-off window reached the far end")
	}
	if n := end.accepted.Load(); n != before {
		t.Fatalf("back-off window re-dialed (%d → %d accepts)", before, n)
	}
}

// TestLinkRejectedHelloSurfacesAsDialError: a far end that refuses the
// handshake (here: its default tenant requires a token the link does not
// carry) fails the dial with the server's reason — on the client link,
// the edge→cloud link and the edge↔edge link alike.
func TestLinkRejectedHelloSurfacesAsDialError(t *testing.T) {
	p := testParams()
	locked := NewTenantPolicy(nil)
	locked.Set(DefaultTenant, TenantLimit{Token: "s3cret"})
	serve := func(srv interface{ Serve(net.Listener) error }) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go srv.Serve(ln)
		return ln.Addr().String()
	}
	cloudAddr := serve(&CloudServer{Cloud: NewCloud(p), ServerCore: ServerCore{Tenants: locked}})
	edgeAddr := serve(&EdgeServer{Edge: NewEdge(p), ServerCore: ServerCore{Tenants: locked}})
	wantRejected := func(what string, err error) {
		t.Helper()
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeBadRequest {
			t.Fatalf("%s: error = %v, want the far end's CodeBadRequest hello rejection", what, err)
		}
	}

	_, err := DialMuxEdge(context.Background(), edgeAddr, NewClient(0, p), ModeCoIC, nil)
	wantRejected("client→edge", err)

	es := &EdgeServer{Edge: NewEdge(p), CloudAddr: cloudAddr}
	_, err = es.roundTripCloud(context.Background(), DefaultTenant, panoFetchMsg(t, 0, "locked", 1))
	wantRejected("edge→cloud", err)

	_, err = es.peerLink(edgeAddr).roundTrip(context.Background(), wire.Message{Type: wire.MsgPeerLookup}, time.Now().Add(peerTimeout))
	wantRejected("edge↔edge", err)
	// ... which the federation reads as a miss, inside the back-off window.
	if v := probe(context.Background(), es, edgeAddr, "anything"); v != nil {
		t.Fatalf("probe of a peer that refuses us = %v, want a miss", v)
	}
}

// TestLinkPushReachesHandlerNeverPendingSlot: a server-pushed frame goes
// to the push handler even when its RequestID collides with a call in
// flight; the call still receives its own reply.
func TestLinkPushReachesHandlerNeverPendingSlot(t *testing.T) {
	end := startFakeEnd(t, func(msg wire.Message, reply func(wire.Message)) {
		reply(wire.Message{Type: wire.MsgSceneEvent, RequestID: msg.RequestID, Body: []byte("pushed")})
		reply(peerHit(msg.RequestID, 4))
	})
	m, err := DialMuxEdge(context.Background(), end.addr, NewClient(0, testParams()), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	pushes := make(chan wire.Message, 1)
	m.SetPushHandler(func(p wire.Message) { pushes <- p }, nil)

	reply, err := m.RoundTrip(context.Background(), wire.Message{Type: wire.MsgPeerLookup})
	if err != nil || reply.Type != wire.MsgPeerReply {
		t.Fatalf("round trip = %v, %v; the push stole the reply slot", reply.Type, err)
	}
	select {
	case p := <-pushes:
		if string(p.Body) != "pushed" {
			t.Fatalf("push body = %q", p.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push never reached the handler")
	}
}

// TestFederationUnderDefaultTenantQuota: peer links authenticate as the
// far edge's default tenant, yet their frames are not that tenant's
// traffic to ration. With the default tenant's bucket all but empty on
// both edges, a two-edge fleet still federates: everything one edge
// fetched is answered inside the fleet through the other.
func TestFederationUnderDefaultTenantQuota(t *testing.T) {
	p := testParams()
	cloud := NewCloud(p)
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudLn.Close()
	go (&CloudServer{Cloud: cloud}).Serve(cloudLn)

	lns := make([]net.Listener, 2)
	srvs := make([]*EdgeServer, 2)
	for i := range srvs {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer lns[i].Close()
		stingy := NewTenantPolicy(nil)
		stingy.Set(DefaultTenant, TenantLimit{Rate: 0.001, Burst: 1})
		srvs[i] = &EdgeServer{Edge: NewEdge(p), CloudAddr: cloudLn.Addr().String(), ServerCore: ServerCore{Tenants: stingy}}
	}
	addrs := []string{lns[0].Addr().String(), lns[1].Addr().String()}
	for i, srv := range srvs {
		if err := srv.SetupFederation(addrs[i], []string{addrs[1-i]}); err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lns[i])
	}
	dial := func(i int) *taskClient {
		m, err := DialMuxEdgeTenant(context.Background(), addrs[i], NewClient(i, p), ModeCoIC, nil, "alice", "")
		if err != nil {
			t.Fatal(err)
		}
		return &taskClient{m}
	}

	models := cloud.AnnotationModelIDs()
	a := dial(0)
	defer a.Close()
	for _, id := range models {
		if _, err := a.Render(id); err != nil {
			t.Fatal(err)
		}
	}
	// Publishing is asynchronous: wait for each key homed at edge 1.
	ring := cache.NewRing(addrs, 0)
	for _, id := range models {
		desc := ModelDescriptor(id)
		if ring.Owner(desc.Key()) == addrs[1] {
			waitFor(t, "publish of "+id, func() bool {
				_, res := srvs[1].Edge.PeerProbe(-1, desc)
				return res.Hit()
			})
		}
	}
	b := dial(1)
	defer b.Close()
	for _, id := range models {
		if _, err := b.Render(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := srvs[1].CloudFetches(); got != 0 {
		t.Fatalf("edge 1 paid %d cloud fetches for keys its peer holds — peer frames were rationed", got)
	}
	// Each key crossed between the edges once — published to edge 1 if
	// homed there, probed from edge 0 if not: far more peer frames than
	// the default tenant's one-token bucket holds, every one scheduled
	// interactive (the clients here only send best-effort work).
	if got := srvs[0].Admitted(wire.QoSInteractive) + srvs[1].Admitted(wire.QoSInteractive); got < uint64(len(models)) {
		t.Fatalf("the fleet admitted %d interactive frames, want at least the %d peer frames", got, len(models))
	}
	if q := srvs[0].QuotaRejections() + srvs[1].QuotaRejections(); q != 0 {
		t.Fatalf("%d quota rejections in a fleet carrying only peer and unlimited-tenant traffic", q)
	}
}
