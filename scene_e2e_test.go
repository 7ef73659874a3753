package coic

// End-to-end tests for shared-scene collaborative sessions: a live
// cloud+edge stack over real TCP, clients joining edge-hosted rooms,
// publishes fanning out as server-push frames. The invariants under
// test are the subsystem's contract: convergence (every surviving
// member's version vector equals every other's at quiesce, however the
// pushes interleaved), room garbage collection (the last member out
// releases everything), and the per-connection writer's two-producer
// discipline (pushes interleave with in-order replies frame-whole —
// corruption would surface as decode errors on either path).

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// sceneStack boots a cloud+edge pair for scene tests and returns the
// edge, its address, and a stop func.
func sceneStack(t testing.TB, opts ...ServerOption) (*Server, string, func()) {
	t.Helper()
	p := testParams()
	ctx, cancel := context.WithCancel(context.Background())
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go NewCloudServer(WithListener(cloudLn), WithServeParams(p)).Serve(ctx)
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := NewEdgeServer(append([]ServerOption{
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithWorkers(4),
	}, opts...)...)
	go edge.Serve(ctx)
	return edge, edgeLn.Addr().String(), cancel
}

// waitConverged polls until every scene's version vector equals want.
func waitConverged(t *testing.T, what string, want map[string]uint64, scenes []*Scene) {
	t.Helper()
	waitForStats(t, what, func() bool {
		for _, sc := range scenes {
			if !maps.Equal(sc.VersionVector(), want) {
				return false
			}
		}
		return true
	})
}

func TestSceneJoinPublishLeaveEndToEnd(t *testing.T) {
	edge, addr, stop := sceneStack(t)
	defer stop()

	a := streamClient(t, addr)
	defer a.Close()
	ctx := context.Background()

	sa, err := a.JoinScene(ctx, "plaza")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sa.Publish(ctx, "anchor/a", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first publish got seq %d, want 1", seq)
	}

	// The publisher's own write comes back as a push.
	select {
	case ev := <-sa.Events():
		if ev.Scene != "plaza" || ev.Key != "anchor/a" || string(ev.Value) != "v1" || ev.Seq != 1 {
			t.Fatalf("unexpected event %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publisher never saw its own push")
	}

	// A late joiner is seeded from the snapshot, not the event stream.
	b := streamClient(t, addr)
	defer b.Close()
	sb, err := b.JoinScene(ctx, "plaza")
	if err != nil {
		t.Fatal(err)
	}
	entries, version := sb.Snapshot()
	if len(entries) != 1 || version != 1 || entries[0].Key != "anchor/a" {
		t.Fatalf("late joiner snapshot = %v at v%d, want anchor/a at v1", entries, version)
	}

	// Cross-member fan-out: b's write reaches a.
	if _, err := sb.Publish(ctx, "anchor/b", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sa.Events():
		if ev.Key != "anchor/b" || ev.Seq != 2 {
			t.Fatalf("unexpected cross-member event %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cross-member push never arrived")
	}

	if rooms, members, publishes := edgeSceneStats(edge); rooms != 1 || members != 2 || publishes != 2 {
		t.Fatalf("SceneStats = %d rooms / %d members / %d publishes, want 1/2/2", rooms, members, publishes)
	}

	// Leave closes the Events channel and the last member out GCs the room.
	if err := sa.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sa.Leave(ctx); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, ok := <-sa.Events(); ok {
		// Drain anything buffered; the channel must eventually close.
		for range sa.Events() {
		}
	}
	if err := sb.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	waitForStats(t, "room GC after the last leave", func() bool {
		rooms, members, _ := edgeSceneStats(edge)
		return rooms == 0 && members == 0
	})

	// Publishing into a scene we left is a membership error, not a hang.
	if _, err := sb.Publish(ctx, "anchor/b", []byte("v3")); err == nil {
		t.Fatal("publish after leave succeeded, want rejection")
	}
}

func edgeSceneStats(edge *Server) (rooms, members int, publishes uint64) {
	st := edge.Stats()
	return st.SceneRooms, st.SceneMembers, st.ScenePublishes
}

// TestSceneConvergence32Members is the acceptance bar: a 32-member room
// over real TCP sustains publishes from several members at once and, at
// quiesce, every member's mirror holds the identical version vector.
func TestSceneConvergence32Members(t *testing.T) {
	const members = 32
	const publishers = 4
	const updatesEach = 25 // 100 publishes total

	_, addr, stop := sceneStack(t)
	defer stop()
	ctx := context.Background()

	clients := make([]*Client, members)
	scenes := make([]*Scene, members)
	for i := range clients {
		clients[i] = streamClient(t, addr)
		defer clients[i].Close()
		sc, err := clients[i].JoinScene(ctx, "plenary", WithSceneWindow(4))
		if err != nil {
			t.Fatalf("member %d join: %v", i, err)
		}
		scenes[i] = sc
	}

	var wg sync.WaitGroup
	errs := make(chan error, publishers)
	for pub := 0; pub < publishers; pub++ {
		wg.Add(1)
		go func(pub int) {
			defer wg.Done()
			for i := 0; i < updatesEach; i++ {
				key := fmt.Sprintf("p%d/k%d", pub, i%5) // overwrites exercise LWW
				if _, err := scenes[pub].Publish(ctx, key, []byte{byte(pub), byte(i)}); err != nil {
					errs <- fmt.Errorf("publisher %d: %w", pub, err)
					return
				}
			}
		}(pub)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesce: the highest sequence number equals the publish total, and
	// every member converges to the same vector (publisher 0's, which
	// itself only advances via pushed events — one code path for all).
	waitForStats(t, "all mirrors to reach the final version", func() bool {
		for _, sc := range scenes {
			if sc.Version() != publishers*updatesEach {
				return false
			}
		}
		return true
	})
	want := scenes[0].VersionVector()
	if len(want) != publishers*5 {
		t.Fatalf("version vector has %d keys, want %d", len(want), publishers*5)
	}
	waitConverged(t, "all 32 version vectors to agree", want, scenes)
}

// TestSceneChurnUnderPublish is the -race churn test: members join,
// leave and hard-disconnect while others publish. Survivors converge,
// the room garbage-collects once everyone is gone, and no goroutines
// leak.
func TestSceneChurnUnderPublish(t *testing.T) {
	baseline := runtime.NumGoroutine()
	edge, addr, stop := sceneStack(t)
	defer stop()
	ctx := context.Background()

	const survivors = 6
	const churners = 8
	const updates = 60

	stay := make([]*Client, survivors)
	scenes := make([]*Scene, survivors)
	for i := range stay {
		stay[i] = streamClient(t, addr)
		sc, err := stay[i].JoinScene(ctx, "churn")
		if err != nil {
			t.Fatal(err)
		}
		scenes[i] = sc
	}

	// Publisher: survivor 0 writes continuously through the churn.
	pubErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			if _, err := scenes[0].Publish(ctx, fmt.Sprintf("k%d", i%7), []byte{byte(i)}); err != nil {
				pubErr <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		close(pubErr)
	}()

	// Churners: join, maybe publish once, then leave politely or slam
	// the connection shut (exercising the Disconnect sweep).
	rng := rand.New(rand.NewPCG(7, 7))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churners; i++ {
			cli, err := NewClient(ctx, addr, WithDialParams(testParams()))
			if err != nil {
				continue // churn against a busy edge may race shutdown; survivors are the assertion
			}
			sc, err := cli.JoinScene(ctx, "churn")
			if err != nil {
				cli.Close()
				continue
			}
			if rng.IntN(2) == 0 {
				sc.Publish(ctx, fmt.Sprintf("churner%d", i), []byte("hi"))
			}
			if rng.IntN(2) == 0 {
				sc.Leave(ctx)
			}
			cli.Close() // hard disconnect for the non-leavers
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	if err, ok := <-pubErr; ok && err != nil {
		t.Fatalf("publisher failed mid-churn: %v", err)
	}

	// Survivors converge on the publisher's vector despite the churn.
	waitForStats(t, "survivor mirrors to quiesce", func() bool {
		want := scenes[0].VersionVector()
		for _, sc := range scenes[1:] {
			if !maps.Equal(sc.VersionVector(), want) {
				return false
			}
		}
		return len(want) > 0
	})

	// Everyone out: the room and its memberships disappear.
	for i, sc := range scenes {
		if err := sc.Leave(ctx); err != nil {
			t.Fatalf("survivor %d leave: %v", i, err)
		}
	}
	waitForStats(t, "scene GC after churn", func() bool {
		rooms, members, _ := edgeSceneStats(edge)
		return rooms == 0 && members == 0
	})
	for _, cli := range stay {
		cli.Close()
	}

	// No goroutine leaks: closed members' pumps, writers and readers all
	// exit. Generous slack absorbs unrelated runtime/test goroutines.
	waitForStats(t, "goroutines to drain after the last member", func() bool {
		return runtime.NumGoroutine() <= baseline+15
	})
}

// TestSceneWriterInterleavingGuard pins the per-connection writer's
// two-producer contract: with a stream of in-order replies and a flood
// of scene pushes sharing one connection, every frame on the wire stays
// whole — any interleaving inside a frame would surface as a decode
// error or a corrupted completion on either path.
func TestSceneWriterInterleavingGuard(t *testing.T) {
	_, addr, stop := sceneStack(t)
	defer stop()
	ctx := context.Background()

	victim := streamClient(t, addr)
	defer victim.Close()
	noisy := streamClient(t, addr)
	defer noisy.Close()

	sv, err := victim.JoinScene(ctx, "interleave", WithSceneWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	sn, err := noisy.JoinScene(ctx, "interleave")
	if err != nil {
		t.Fatal(err)
	}

	// Noisy floods publishes; each one lands on victim's writer as a
	// push, racing the stream replies below.
	floodCtx, stopFlood := context.WithCancel(ctx)
	defer stopFlood()
	flooderDone := make(chan struct{})
	go func() {
		defer close(flooderDone)
		for i := 0; floodCtx.Err() == nil; i++ {
			if _, err := sn.Publish(floodCtx, fmt.Sprintf("k%d", i%3), []byte{byte(i)}); err != nil {
				return
			}
		}
	}()

	// Victim runs a busy request stream on the same connection the
	// pushes arrive on. Every completion must decode and succeed.
	st, err := victim.Stream(ctx, WithWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	const requests = 60
	results := st.Results()
	go func() {
		for i := 0; i < requests; i++ {
			if _, err := st.Submit(ctx, PanoTask("interleave-vid", i, Viewport{FOV: 1.5})); err != nil {
				return
			}
		}
	}()
	for i := 0; i < requests; i++ {
		comp := <-results
		if comp.Err != nil {
			t.Fatalf("completion %d: %v (framing corrupted?)", i, comp.Err)
		}
	}
	st.Close()
	stopFlood()
	<-flooderDone

	// And the pushes that raced those replies still converge the mirror.
	// Both mirrors are read live: a publish cancelled by stopFlood can
	// still apply server-side, and Publish may return one push latency
	// ahead of the flooder's own mirror, so a snapshot taken here could
	// already be stale.
	waitForStats(t, "victim mirror to match the flooder's", func() bool {
		return maps.Equal(sv.VersionVector(), sn.VersionVector())
	})
}

// TestSceneOrderedClientRejected pins the compatibility contract: a
// connection that did not negotiate completion-order replies
// (HelloFlagUnordered) never receives a push — its join is rejected up
// front with CodeBadRequest.
func TestSceneOrderedClientRejected(t *testing.T) {
	_, addr, stop := sceneStack(t)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello, err := (wire.Hello{Version: wire.HelloVersion, Mode: uint8(ModeCoIC)}).Marshal() // Flags: 0 — ordered replies
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgHello, RequestID: 1, Body: hello}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadMessage(conn); err != nil { // hello ack
		t.Fatal(err)
	}
	join, err := (wire.SceneJoin{Scene: "plaza"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgSceneJoin, RequestID: 2, Body: join}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.MsgError {
		t.Fatalf("ordered join got %v, want an error reply", reply.Type)
	}
	er, err := wire.UnmarshalErrorReply(reply.Body)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != wire.CodeBadRequest {
		t.Fatalf("ordered join rejected with code %d, want CodeBadRequest (%d)", er.Code, wire.CodeBadRequest)
	}
}

// TestSceneTenantQuotas covers the tenancy riders: scenes are scoped per
// tenant, member counts admit through TenantConfig.SceneMembers, and
// publish rates spend the same token bucket as every other request.
func TestSceneTenantQuotas(t *testing.T) {
	_, addr, stop := sceneStack(t,
		WithTenantQuota("ar", TenantConfig{SceneMembers: 2}),
		WithTenantQuota("slow", TenantConfig{Rate: 1, Burst: 3}))
	defer stop()
	ctx := context.Background()
	p := testParams()

	dial := func(tenant string) *Client {
		t.Helper()
		cli, err := NewClient(ctx, addr, WithDialParams(p), WithTenant(tenant, ""))
		if err != nil {
			t.Fatal(err)
		}
		return cli
	}

	// Member cap: the third concurrent member of tenant "ar" is refused
	// with the quota error, across rooms.
	a, b, c := dial("ar"), dial("ar"), dial("ar")
	defer a.Close()
	defer b.Close()
	defer c.Close()
	if _, err := a.JoinScene(ctx, "room1"); err != nil {
		t.Fatal(err)
	}
	sb, err := b.JoinScene(ctx, "room2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.JoinScene(ctx, "room1"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third member join = %v, want ErrQuotaExceeded", err)
	}
	// Leaving frees the slot.
	if err := sb.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	sc, err := c.JoinScene(ctx, "room1")
	if err != nil {
		t.Fatalf("join after a slot freed: %v", err)
	}

	// Tenant scoping: another tenant's same-named room is a different
	// document.
	other := dial("")
	defer other.Close()
	so, err := other.JoinScene(ctx, "room1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Publish(ctx, "shared", []byte("ar's")); err != nil {
		t.Fatal(err)
	}
	waitForStats(t, "ar's write to land in its own mirror", func() bool { return sc.Version() == 1 })
	if v := so.Version(); v != 0 {
		t.Fatalf("default tenant's room1 saw tenant ar's write (version %d)", v)
	}

	// Publish rate: tenant "slow" (1 rps, burst 3) blows its bucket —
	// the join spends one token, so a burst of publishes hits the quota.
	s := dial("slow")
	defer s.Close()
	ss, err := s.JoinScene(ctx, "room1")
	if err != nil {
		t.Fatal(err)
	}
	var quotaErr error
	for i := 0; i < 10 && quotaErr == nil; i++ {
		_, err := ss.Publish(ctx, "k", []byte{byte(i)})
		if errors.Is(err, ErrQuotaExceeded) {
			quotaErr = err
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if quotaErr == nil {
		t.Fatal("10 instant publishes at rate 1/burst 3 never hit the tenant quota")
	}
}
