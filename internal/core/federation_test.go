package core

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/trace"
	"github.com/edge-immersion/coic/internal/wire"
)

// fedRig builds n federated edges (consistent hashing over a default
// mesh) with one session per edge, all sharing one cloud.
func fedRig(t *testing.T, p Params, n int) ([]*Session, []*Edge, *Cloud) {
	t.Helper()
	cloud := NewCloud(p)
	edges := make([]*Edge, n)
	sessions := make([]*Session, n)
	for i := range edges {
		edges[i] = NewEdge(p)
	}
	Federate(edges, FederationConfig{
		Mesh:      netsim.NewMesh(n, netsim.DefaultPeerCondition(), p.Seed),
		Replicate: true,
	})
	for i := range edges {
		topo := netsim.NewTopology(netsim.Condition{Name: "200/20", MobileEdge: 200, EdgeCloud: 20}, p.Seed+uint64(i))
		sessions[i] = NewSession(NewClient(i, p), edges[i], cloud, topo)
	}
	return sessions, edges, cloud
}

// modelOwnedBy finds a repository model whose descriptor's ring home is
// EdgeID(want) in an n-edge federation.
func modelOwnedBy(t *testing.T, cloud *Cloud, n, want int) string {
	t.Helper()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = EdgeID(i)
	}
	ring := cache.NewRing(ids, 0)
	for _, id := range cloud.ModelIDs() {
		if ring.Owner(ModelDescriptor(id).Key()) == EdgeID(want) {
			return id
		}
	}
	t.Fatalf("no repository model homed at %s", EdgeID(want))
	return ""
}

func TestFederationPeerHitVirtual(t *testing.T) {
	p := testParams()
	sessions, edges, cloud := fedRig(t, p, 2)
	model := modelOwnedBy(t, cloud, 2, 0)

	// Edge 0's user computes the result: cloud fetch, cached at edge 0
	// (which is also the key's home, so no publish traffic).
	warm, _, err := sessions[0].Do(context.Background(), epoch, RenderTask(model), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cloud == 0 {
		t.Fatal("cold request must reach the cloud")
	}

	// Edge 1's user wants the same model: local miss, one peer hop to the
	// home edge, no cloud.
	b, _, err := sessions[1].Do(context.Background(), epoch, RenderTask(model), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome == cache.OutcomeMiss {
		t.Fatalf("peer lookup missed: %+v", b)
	}
	if b.Cloud != 0 || b.UpEC != 0 {
		t.Fatalf("peer hit still paid for the cloud: %+v", b)
	}
	if b.PeerHop <= 0 {
		t.Fatalf("peer hop cost not charged: %+v", b)
	}
	st := edges[1].Stats()
	if st.PeerHits != 1 {
		t.Fatalf("edge 1 peer hits = %d, want 1", st.PeerHits)
	}
	fs := edges[1].Federation().Stats()
	if fs.Probes != 1 || fs.Hits != 1 {
		t.Fatalf("federation stats = %+v", fs)
	}

	// Replication: the peer hit was adopted locally, so the next request
	// from edge 1 resolves without any peer traffic.
	b2, _, err := sessions[1].Do(context.Background(), epoch, RenderTask(model), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Outcome != cache.OutcomeExact || b2.PeerHop != 0 {
		t.Fatalf("replicated entry not served locally: %+v", b2)
	}
}

func TestFederationPublishToHome(t *testing.T) {
	p := testParams()
	sessions, edges, cloud := fedRig(t, p, 2)
	// The model's home is edge 1, but edge 0's user computes it first:
	// the result must be published to edge 1.
	model := modelOwnedBy(t, cloud, 2, 1)

	if _, _, err := sessions[0].Do(context.Background(), epoch, RenderTask(model), ModeCoIC); err != nil {
		t.Fatal(err)
	}
	if pub := edges[0].Federation().Stats().Published; pub != 1 {
		t.Fatalf("published = %d, want 1", pub)
	}
	if ri := edges[1].Stats().RemoteInserts; ri != 1 {
		t.Fatalf("edge 1 remote inserts = %d, want 1", ri)
	}

	// Edge 1's user now hits locally — the publish seeded the home.
	b, _, err := sessions[1].Do(context.Background(), epoch, RenderTask(model), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeExact || b.Cloud != 0 || b.PeerHop != 0 {
		t.Fatalf("home edge did not hit locally: %+v", b)
	}
}

func TestFederationMissFallsBackToCloud(t *testing.T) {
	p := testParams()
	sessions, edges, cloud := fedRig(t, p, 2)
	model := modelOwnedBy(t, cloud, 2, 0)

	// Nobody has computed this model: edge 1 misses locally, probes the
	// home (edge 0) fruitlessly — paying for the hop — then goes to the
	// cloud.
	b, _, err := sessions[1].Do(context.Background(), epoch, RenderTask(model), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeMiss || b.Cloud == 0 {
		t.Fatalf("expected cloud fallback: %+v", b)
	}
	if b.PeerHop <= 0 {
		t.Fatalf("failed probe must still cost a hop: %+v", b)
	}
	fs := edges[1].Federation().Stats()
	if fs.Probes != 1 || fs.Misses != 1 || fs.Hits != 0 {
		t.Fatalf("federation stats = %+v", fs)
	}
}

func TestRunFederationCooperationWins(t *testing.T) {
	// The acceptance experiment at test scale: a shared workload over
	// capacity-constrained edges. Federation must (a) beat isolated edges
	// at the same edge count, and (b) raise the aggregate hit ratio and
	// cut cloud fetches as edges are added.
	if raceEnabled {
		t.Skip("deterministic single-threaded replay; ~10x slower and redundant under -race")
	}
	p := testParams()
	// 1 MB edges against a ~2.5 MB working set (eight 236 KB annotation
	// models plus pano frames): a lone edge churns, a federation pools.
	p.EdgeCacheBytes = 1 << 20
	events, err := trace.Generate(trace.Config{
		Users: 16, Cells: 8, Duration: 30 * time.Second,
		RatePerUser: 1, Objects: 96, ZipfAlpha: 0.8,
		Locality: 0.7, HotSetSize: 12,
		TaskMix: trace.TaskMix{Recognize: 0.3, Render: 0.5, Pano: 0.2},
		Seed:    p.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	point := func(n int, federated bool) FederationRow {
		r := FederationPoint(p, testCond, events, n, PlaceByCell, federated)
		if r.Errors > 0 {
			t.Fatalf("row %+v has errors", r)
		}
		return r
	}
	// A single edge has nobody to federate with: asking changes nothing
	// (the determinism pass below replays it isolated and compares).
	one, iso4, fed4 := point(1, true), point(4, false), point(4, true)
	if one.Federated || iso4.Federated || !fed4.Federated {
		t.Fatalf("federated flags: one=%v iso4=%v fed4=%v", one.Federated, iso4.Federated, fed4.Federated)
	}
	if fed4.HitRatio <= iso4.HitRatio {
		t.Fatalf("federation did not beat isolation at 4 edges: %.3f vs %.3f", fed4.HitRatio, iso4.HitRatio)
	}
	if fed4.CloudFetches >= iso4.CloudFetches {
		t.Fatalf("federation did not offload the cloud at 4 edges: %d vs %d", fed4.CloudFetches, iso4.CloudFetches)
	}
	if fed4.HitRatio < one.HitRatio {
		t.Fatalf("adding federated edges lowered the hit ratio: %.3f (4 edges) vs %.3f (1)", fed4.HitRatio, one.HitRatio)
	}
	if fed4.CloudFetches > one.CloudFetches {
		t.Fatalf("adding federated edges raised cloud traffic: %d (4 edges) vs %d (1)", fed4.CloudFetches, one.CloudFetches)
	}
	if fed4.PeerHits == 0 || fed4.Published == 0 {
		t.Fatalf("federation ran but never cooperated: %+v", fed4)
	}

	// Determinism: every point replays identically.
	for i, r := range []FederationRow{one, iso4, fed4} {
		if again := point(r.Edges, r.Federated); again != r {
			t.Fatalf("point %d not deterministic:\n%+v\n%+v", i, r, again)
		}
	}
}

func TestSetupFederationRejectsBadMembership(t *testing.T) {
	p := testParams()
	for _, tc := range []struct {
		name  string
		self  string
		peers []string
	}{
		{"empty self", "", []string{"b:1"}},
		{"self in peers", "a:1", []string{"b:1", "a:1"}},
		{"duplicate peer", "a:1", []string{"b:1", "b:1"}},
	} {
		srv := &EdgeServer{Edge: NewEdge(p)}
		if err := srv.SetupFederation(tc.self, tc.peers); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// startFedStack brings up a cloud plus n federated TCP edges.
func startFedStack(t *testing.T, p Params, n int) ([]string, []*Edge, func()) {
	t.Helper()
	cloud := NewCloud(p)
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&CloudServer{Cloud: cloud}).Serve(cloudLn)

	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	edges := make([]*Edge, n)
	servers := make([]*EdgeServer, n)
	for i := 0; i < n; i++ {
		lns[i], err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
		edges[i] = NewEdge(p)
		servers[i] = &EdgeServer{Edge: edges[i], CloudAddr: cloudLn.Addr().String()}
	}
	for i, srv := range servers {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		if err := srv.SetupFederation(addrs[i], peers); err != nil {
			t.Fatal(err)
		}
		go srv.Serve(lns[i])
	}
	return addrs, edges, func() {
		for _, ln := range lns {
			ln.Close()
		}
		cloudLn.Close()
	}
}

func TestTCPFederationSharesAcrossEdges(t *testing.T) {
	p := testParams()
	addrs, edges, stop := startFedStack(t, p, 2)
	defer stop()

	cliA, err := dialEdge(addrs[0], NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cliA.Close()
	cliB, err := dialEdge(addrs[1], NewClient(1, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cliB.Close()

	model := AnnotationModelID("car")
	if _, err := cliA.Render(model); err != nil {
		t.Fatal(err)
	}
	// Edge B has never seen the model, but the federation has: either the
	// publish already seeded B (B is the key's home) or B's probe reaches
	// A. Both ways B answers without the cloud. Publishing is
	// asynchronous, so when B is the home, wait for the insert to land
	// before asking.
	ring := cache.NewRing(addrs, 0)
	if ring.Owner(ModelDescriptor(model).Key()) == addrs[1] {
		deadline := time.Now().Add(5 * time.Second)
		for edges[1].Stats().RemoteInserts == 0 {
			if time.Now().After(deadline) {
				t.Fatal("publish to home edge never arrived")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if _, err := cliB.Render(model); err != nil {
		t.Fatal(err)
	}
	stB := edges[1].Stats()
	hits := stB.Exact[wire.TaskRender] + stB.Similar[wire.TaskRender]
	if hits != 1 {
		t.Fatalf("edge B hits = %d, want 1 (federation must answer)", hits)
	}
	fedCooperated := edges[1].Stats().PeerHits+edges[1].Stats().RemoteInserts > 0
	if !fedCooperated {
		t.Fatal("no peer hit and no remote insert — where did B's hit come from?")
	}
}

func TestTCPFederationPeerDownDegrades(t *testing.T) {
	p := testParams()
	// A federation of one live edge and one address nobody listens on:
	// every probe to the dead peer must fail fast and fall back to the
	// cloud — degraded single-edge behaviour, not an outage.
	cloud := NewCloud(p)
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudLn.Close()
	go (&CloudServer{Cloud: cloud}).Serve(cloudLn)

	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close() // nobody home

	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer edgeLn.Close()
	edge := NewEdge(p)
	srv := &EdgeServer{Edge: edge, CloudAddr: cloudLn.Addr().String()}
	if err := srv.SetupFederation(edgeLn.Addr().String(), []string{deadAddr}); err != nil {
		t.Fatal(err)
	}
	go srv.Serve(edgeLn)

	cli, err := dialEdge(edgeLn.Addr().String(), NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Render every annotation model: some are homed at the dead peer, so
	// their probes fail; all requests must still succeed via the cloud.
	for _, id := range cloud.AnnotationModelIDs() {
		if _, err := cli.Render(id); err != nil {
			t.Fatalf("render %s with dead peer: %v", id, err)
		}
	}
	// And the cache still works: repeats are local hits.
	for _, id := range cloud.AnnotationModelIDs() {
		if _, err := cli.Render(id); err != nil {
			t.Fatal(err)
		}
	}
	st := edge.Stats()
	if hits := st.Exact[wire.TaskRender]; hits < uint64(len(cloud.AnnotationModelIDs())) {
		t.Fatalf("repeat renders did not hit locally: %d", hits)
	}
}
