package core

import (
	"context"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/trace"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// testParams shrinks frames and panoramas so unit tests stay fast; the
// protocol and cache behaviour are size-independent. The mobile compute
// rate is scaled up in proportion to the smaller payloads so the latency
// ordering of the full-size system (extraction cheaper than the cloud
// round trip) is preserved at test scale.
func testParams() Params {
	p := DefaultParams()
	p.CameraW, p.CameraH = 128, 128
	p.DNNInput = 32
	p.PanoWidth = 256
	p.MobileGFLOPS = 28
	return p
}

func testRig(t *testing.T, cond netsim.Condition, p Params) (*Session, *Edge, *Cloud) {
	t.Helper()
	cloud := NewCloud(p)
	edge := NewEdge(p)
	client := NewClient(0, p)
	topo := netsim.NewTopology(cond, p.Seed)
	return NewSession(client, edge, cloud, topo), edge, cloud
}

var testCond = netsim.Condition{Name: "200/20", MobileEdge: 200, EdgeCloud: 20}

func TestRecognizeMissThenSimilarHit(t *testing.T) {
	p := testParams()
	sess, edge, _ := testRig(t, testCond, p)

	miss, missRes, err := sess.Do(context.Background(), epoch, RecognizeTask(vision.ClassCar, 11), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Outcome != cache.OutcomeMiss {
		t.Fatalf("cold request outcome = %v", miss.Outcome)
	}
	if missRes.AnnotationModelID == "" {
		t.Fatal("recognition result missing annotation model")
	}

	hit, hitRes, err := sess.Do(context.Background(), epoch.Add(time.Minute), RecognizeTask(vision.ClassCar, 22), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Outcome != cache.OutcomeSimilar && hit.Outcome != cache.OutcomeExact {
		t.Fatalf("warm request outcome = %v", hit.Outcome)
	}
	if hitRes.Label != missRes.Label {
		t.Fatalf("cached label %q != computed %q", hitRes.Label, missRes.Label)
	}
	if hit.Total() >= miss.Total() {
		t.Fatalf("hit (%v) not faster than miss (%v)", hit.Total(), miss.Total())
	}
	if hit.UpEC != 0 || hit.Cloud != 0 || hit.DownEC != 0 {
		t.Fatalf("hit touched the cloud: %+v", hit)
	}
	st := edge.Stats()
	if st.Lookups[wire.TaskRecognize] != 2 || st.Misses[wire.TaskRecognize] != 1 {
		t.Fatalf("edge stats: %+v", st)
	}
}

func TestRecognizeDifferentObjectsDoNotAlias(t *testing.T) {
	p := testParams()
	sess, _, _ := testRig(t, testCond, p)
	if _, _, err := sess.Do(context.Background(), epoch, RecognizeTask(vision.ClassCar, 1), ModeCoIC); err != nil {
		t.Fatal(err)
	}
	b, res, err := sess.Do(context.Background(), epoch.Add(time.Minute), RecognizeTask(vision.ClassTree, 2), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeMiss {
		t.Fatalf("different class matched the cache (outcome %v, label %q)", b.Outcome, res.Label)
	}
}

func TestRecognizeOriginSkipsEverything(t *testing.T) {
	p := testParams()
	sess, edge, _ := testRig(t, testCond, p)
	b, _, err := sess.Do(context.Background(), epoch, RecognizeTask(vision.ClassDog, 5), ModeOrigin)
	if err != nil {
		t.Fatal(err)
	}
	if b.Extract != 0 {
		t.Fatal("origin mode extracted a descriptor")
	}
	if b.Cloud == 0 || b.UpEC == 0 {
		t.Fatal("origin request did not reach the cloud")
	}
	if st := edge.Stats(); st.Lookups[wire.TaskRecognize] != 0 || st.Inserts != 0 {
		t.Fatalf("origin mode touched the cache: %+v", st)
	}
}

func TestBreakdownAddsUp(t *testing.T) {
	p := testParams()
	sess, _, _ := testRig(t, testCond, p)
	b, _, err := sess.Do(context.Background(), epoch, RecognizeTask(vision.ClassPerson, 7), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	sum := b.Extract + b.UpME + b.EdgeProc + b.UpEC + b.Cloud + b.DownEC + b.DownME + b.ClientProc
	if diff := (b.Total() - sum); diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("breakdown sum %v != total %v", sum, b.Total())
	}
	if !b.End.After(b.Start) || b.BytesUp == 0 || b.BytesDown == 0 {
		t.Fatalf("degenerate breakdown: %+v", b)
	}
}

func TestRenderHitServesFromEdge(t *testing.T) {
	p := testParams()
	sess, _, _ := testRig(t, testCond, p)
	id := AnnotationModelID("car")

	miss, _, err := sess.Do(context.Background(), epoch, RenderTask(id), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Outcome != cache.OutcomeMiss || miss.Cloud == 0 {
		t.Fatalf("cold render: %+v", miss)
	}
	hit, _, err := sess.Do(context.Background(), epoch.Add(time.Minute), RenderTask(id), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Outcome != cache.OutcomeExact {
		t.Fatalf("warm render outcome = %v", hit.Outcome)
	}
	if hit.Cloud != 0 || hit.UpEC != 0 {
		t.Fatal("hit render touched the cloud")
	}
	if hit.Total() >= miss.Total() {
		t.Fatalf("hit %v not faster than miss %v", hit.Total(), miss.Total())
	}
	if hit.ClientProc == 0 {
		t.Fatal("render skipped client load+draw")
	}
}

func TestRenderUnknownModel(t *testing.T) {
	p := testParams()
	sess, _, _ := testRig(t, testCond, p)
	if _, _, err := sess.Do(context.Background(), epoch, RenderTask("no-such-model"), ModeCoIC); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestPanoSharedAcrossUsers(t *testing.T) {
	p := testParams()
	cloud := NewCloud(p)
	edge := NewEdge(p)
	topo := netsim.NewTopology(testCond, p.Seed)
	alice := NewSession(NewClient(1, p), edge, cloud, topo)
	bob := NewSession(NewClient(2, p), edge, cloud, topo)

	vpA := pano.Viewport{Yaw: 0.3, FOV: 1.5}
	vpB := pano.Viewport{Yaw: -1.2, Pitch: 0.2, FOV: 1.5} // different viewport!

	first, _, err := alice.Do(context.Background(), epoch, PanoTask("vr-concert", 10, vpA), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != cache.OutcomeMiss {
		t.Fatalf("first pano outcome = %v", first.Outcome)
	}
	second, _, err := bob.Do(context.Background(), epoch.Add(time.Second), PanoTask("vr-concert", 10, vpB), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if second.Outcome != cache.OutcomeExact {
		t.Fatalf("same frame, second user: outcome = %v — panorama not shared", second.Outcome)
	}
	if second.Total() >= first.Total() {
		t.Fatal("shared panorama was not faster")
	}
	// Different frame must miss.
	third, _, err := bob.Do(context.Background(), epoch.Add(2*time.Second), PanoTask("vr-concert", 11, vpB), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if third.Outcome != cache.OutcomeMiss {
		t.Fatal("different frame hit the cache")
	}
}

func TestCooperativeEdgePeering(t *testing.T) {
	p := testParams()
	cloud := NewCloud(p)
	edgeA := NewEdge(p)
	edgeB := NewEdge(p)
	Federate([]*Edge{edgeA, edgeB}, FederationConfig{Replicate: true})
	topoA := netsim.NewTopology(testCond, p.Seed)
	topoB := netsim.NewTopology(testCond, p.Seed+1)
	// A model homed at edge A: A keeps it without publishing, so B can
	// find it only by probing its home.
	model := modelOwnedBy(t, cloud, 2, 0)

	// User at edge A warms A's cache.
	sessA := NewSession(NewClient(1, p), edgeA, cloud, topoA)
	if _, _, err := sessA.Do(context.Background(), epoch, RenderTask(model), ModeCoIC); err != nil {
		t.Fatal(err)
	}
	if st := edgeB.Stats(); st.Inserts != 0 {
		t.Fatalf("edge B holds %d entries before its first request", st.Inserts)
	}
	// User at edge B: local miss, peer hit.
	sessB := NewSession(NewClient(2, p), edgeB, cloud, topoB)
	b, _, err := sessB.Do(context.Background(), epoch.Add(time.Second), RenderTask(model), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome == cache.OutcomeMiss {
		t.Fatal("peer cache not consulted")
	}
	if st := edgeB.Stats(); st.PeerHits != 1 {
		t.Fatalf("peer hits = %d", st.PeerHits)
	}
	// The peer hit is adopted locally: next lookup hits edge B directly.
	b2, _, err := sessB.Do(context.Background(), epoch.Add(2*time.Second), RenderTask(model), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if st := edgeB.Stats(); st.PeerHits != 1 {
		t.Fatalf("second lookup went to peer again: %+v", st)
	}
	_ = b2
}

func TestThresholdSweepMonotonic(t *testing.T) {
	p := testParams()
	pts := RunThresholdSweep(p, []float64{0.05, 0.12, 0.3, 0.6}, 8)
	for i := 1; i < len(pts); i++ {
		if pts[i].TruePositive < pts[i-1].TruePositive || pts[i].FalsePositive < pts[i-1].FalsePositive {
			t.Fatalf("rates not monotone in threshold: %+v", pts)
		}
	}
	for _, pt := range pts {
		if pt.TruePositive < pt.FalsePositive {
			t.Fatalf("tp < fp at threshold %v — descriptors useless", pt.Threshold)
		}
	}
	// At the configured threshold, same-object matching must be reliable
	// and cross-object matching rare.
	cfg := RunThresholdSweep(p, []float64{p.Threshold}, 12)[0]
	if cfg.TruePositive < 0.9 {
		t.Fatalf("true-positive rate %.2f at configured threshold", cfg.TruePositive)
	}
	if cfg.FalsePositive > 0.2 {
		t.Fatalf("false-positive rate %.2f at configured threshold", cfg.FalsePositive)
	}
}

func TestRunTraceCoICBeatsOrigin(t *testing.T) {
	p := testParams()
	events, err := trace.Generate(trace.Config{
		Users: 6, Cells: 2, Duration: 20 * time.Second,
		RatePerUser: 1.2, Objects: 12, ZipfAlpha: 0.9,
		Locality: 0.8, HotSetSize: 4,
		TaskMix: trace.TaskMix{Recognize: 0.6, Render: 0.25, Pano: 0.15},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 40 {
		t.Fatalf("trace too small: %d events", len(events))
	}

	coic := RunTrace(p, testCond, events, ModeCoIC)
	origin := RunTrace(p, testCond, events, ModeOrigin)
	if coic.Errors != 0 || origin.Errors != 0 {
		t.Fatalf("errors: coic=%d origin=%d", coic.Errors, origin.Errors)
	}
	if coic.Events != len(events) || origin.Events != len(events) {
		t.Fatal("event counts wrong")
	}
	if coic.HitRatio() < 0.25 {
		t.Fatalf("hit ratio %.2f too low for a high-locality trace", coic.HitRatio())
	}
	if coic.All.Mean() >= origin.All.Mean() {
		t.Fatalf("CoIC mean %v not below origin mean %v", coic.All.Mean(), origin.All.Mean())
	}
	hits := coic.Outcomes[cache.OutcomeExact] + coic.Outcomes[cache.OutcomeSimilar]
	if hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestRunTraceDeterministic(t *testing.T) {
	p := testParams()
	events, _ := trace.Generate(trace.Config{
		Users: 3, Cells: 2, Duration: 10 * time.Second,
		RatePerUser: 1, Objects: 8, Locality: 0.7, Seed: 3,
	})
	a := RunTrace(p, testCond, events, ModeCoIC)
	b := RunTrace(p, testCond, events, ModeCoIC)
	if a.All.Mean() != b.All.Mean() || a.HitRatio() != b.HitRatio() {
		t.Fatal("trace replay not deterministic")
	}
}

func TestCloudErrorPaths(t *testing.T) {
	p := testParams()
	cloud := NewCloud(p)
	if _, _, err := cloud.Recognize([]byte{1, 2, 3}); err == nil {
		t.Fatal("bad payload accepted")
	}
	if _, _, err := cloud.FetchModel("ghost"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, _, err := cloud.FetchPano("v", -1); err == nil {
		t.Fatal("negative frame accepted")
	}
	if len(cloud.ModelIDs()) < len(p.Classes())+len(Fig2bModelKB) {
		t.Fatal("repository incomplete")
	}
}

func TestFleetStatsHitRatio(t *testing.T) {
	if (FleetStats{}).HitRatio() != 0 {
		t.Fatal("empty ratio")
	}
	if r := (FleetStats{Lookups: 4, Hits: 3}).HitRatio(); r != 0.75 {
		t.Fatalf("ratio = %v", r)
	}
}

func TestDescriptorsStableAcrossProcessesAndUsers(t *testing.T) {
	// Two clients built independently (same Params) must produce the
	// same descriptor for the same frame — the deployment invariant that
	// lets one user's cached result serve another.
	p := testParams()
	a := NewClient(1, p)
	b := NewClient(2, p)
	frame := a.CaptureFrame(vision.ClassAvatar, 99)
	da, _ := a.Extract(frame)
	db, _ := b.Extract(frame)
	if da.Key() != db.Key() {
		t.Fatal("clients disagree on descriptors")
	}
}

func TestRecognitionAccuracy(t *testing.T) {
	// The cloud's nearest-centroid classifier must label every class
	// correctly under viewpoint variation — otherwise cached labels
	// would poison other users.
	p := testParams()
	cloud := NewCloud(p)
	client := NewClient(0, p)
	correct, total := 0, 0
	for ci := 0; ci < int(vision.NumClasses); ci++ {
		for v := uint64(0); v < 5; v++ {
			frame := client.CaptureFrame(vision.Class(ci), 7000+v*31+uint64(ci))
			body, _, err := cloud.Recognize(frame.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			res, err := wire.UnmarshalRecognitionResult(body)
			if err != nil {
				t.Fatal(err)
			}
			total++
			if int(res.ClassIndex) == ci {
				correct++
			}
		}
	}
	if correct < total*9/10 {
		t.Fatalf("recognition accuracy %d/%d below 90%%", correct, total)
	}
}

func TestPrivacyKGate(t *testing.T) {
	// K=3: an entry unlocks for strangers only after three distinct
	// users have requested it. Hash-keyed render tasks make the flow
	// deterministic.
	p := testParams()
	cloud := NewCloud(p)
	edge := NewEdge(p, WithPrivacyK(3))
	topo := netsim.NewTopology(testCond, p.Seed)
	id := AnnotationModelID("car")

	sess := func(user int) *Session {
		return NewSession(NewClient(user, p), edge, cloud, topo)
	}

	// User 1 computes and caches the result.
	b, _, err := sess(1).Do(context.Background(), epoch, RenderTask(id), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeMiss {
		t.Fatalf("first request: %v", b.Outcome)
	}
	// User 1 again: own results are always visible.
	b, _, err = sess(1).Do(context.Background(), epoch.Add(time.Second), RenderTask(id), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeExact {
		t.Fatalf("inserter blocked from own entry: %v", b.Outcome)
	}
	// User 2 (stranger, interest=1): blocked.
	b, _, err = sess(2).Do(context.Background(), epoch.Add(2*time.Second), RenderTask(id), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeMiss {
		t.Fatalf("gate leaked at interest=1: %v", b.Outcome)
	}
	// User 3 (interest=2): still blocked.
	b, _, err = sess(3).Do(context.Background(), epoch.Add(3*time.Second), RenderTask(id), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeMiss {
		t.Fatalf("gate leaked at interest=2: %v", b.Outcome)
	}
	// User 4 (interest=3 >= K): shared.
	b, _, err = sess(4).Do(context.Background(), epoch.Add(4*time.Second), RenderTask(id), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeExact {
		t.Fatalf("gate did not unlock at K=3: %v", b.Outcome)
	}
	st := edge.Stats()
	if st.PrivacyBlocked != 2 {
		t.Fatalf("PrivacyBlocked = %d, want 2", st.PrivacyBlocked)
	}
}

func TestPrivacyKDisabledByDefault(t *testing.T) {
	p := testParams()
	sess, _, _ := testRig(t, testCond, p)
	id := AnnotationModelID("dog")
	if _, _, err := sess.Do(context.Background(), epoch, RenderTask(id), ModeCoIC); err != nil {
		t.Fatal(err)
	}
	b, _, err := sess.Do(context.Background(), epoch.Add(time.Second), RenderTask(id), ModeCoIC)
	if err != nil {
		t.Fatal(err)
	}
	if b.Outcome != cache.OutcomeExact {
		t.Fatalf("default edge blocked sharing: %v", b.Outcome)
	}
}

// TestEdgeCacheOptionsCompose builds an edge with both cache options at
// the default 256 MB: the policy, the index and the capacity's striping
// must all survive, whatever order the options run in.
func TestEdgeCacheOptionsCompose(t *testing.T) {
	e := NewEdge(DefaultParams(), WithCachePolicy(cache.NewGDSF), WithCacheIndex(feature.NewLSH(64, 8, 12, 1)))
	policy, stripes, index := e.Cache.Layout()
	if _, lsh := index.(*feature.LSH); policy != "gdsf" || stripes != 8 || !lsh {
		t.Fatalf("cache runs %s over %d stripes with a %T, want gdsf over 8 with *feature.LSH", policy, stripes, index)
	}
}
