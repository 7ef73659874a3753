package coic

// Tests for the v2 API surface: the unified Request/Do entry point,
// functional options, context semantics, deadlines, SystemStats, and the
// option-built TCP servers with graceful shutdown.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/feature"
)

func testSystem(t *testing.T, opts ...Option) *System {
	t.Helper()
	sys, err := New(append([]Option{WithParams(testParams())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDoUnifiedTasks(t *testing.T) {
	sys := testSystem(t, WithClients(2))
	ctx := context.Background()

	res, err := sys.Do(ctx, 0, RecognizeTask(ClassStopSign, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recognition == nil || res.Recognition.Label == "" {
		t.Fatalf("recognition result missing: %+v", res)
	}
	sys.Advance(time.Second)

	res2, err := sys.Do(ctx, 1, RecognizeTask(ClassStopSign, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Breakdown.Outcome.String() == "miss" {
		t.Fatal("second user did not benefit from the shared cache")
	}

	if _, err := sys.Do(ctx, 0, RenderTask(AnnotationModelID(ClassCar))); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Do(ctx, 0, PanoTask("v2-video", 0, Viewport{FOV: 1.5})); err != nil {
		t.Fatal(err)
	}
	if res.Recognition.AnnotationModelID == "" {
		t.Fatal("annotation model id empty")
	}
}

func TestDoValidatesRequests(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	if _, err := sys.Do(ctx, 0, Request{}); err == nil {
		t.Fatal("empty request accepted")
	}
	two := RecognizeTask(ClassCar, 1)
	two.Render = &RenderSpec{ModelID: "x"}
	if _, err := sys.Do(ctx, 0, two); err == nil {
		t.Fatal("two-task request accepted")
	}
	if _, err := sys.Do(ctx, 9, RecognizeTask(ClassCar, 1)); err == nil {
		t.Fatal("out-of-range client accepted")
	}
}

// TestDoExpiredContextNoCloudRoundTrip is the satellite acceptance test:
// an already-dead context must return promptly without any cloud work —
// no compute time accrues cloud-side and the virtual clock stays put.
func TestDoExpiredContextNoCloudRoundTrip(t *testing.T) {
	sys := testSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	before := sys.Now()
	start := time.Now()
	_, err := sys.Do(ctx, 0, RecognizeTask(ClassTree, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired-context Do took %v — it did real work", elapsed)
	}
	if !sys.Now().Equal(before) {
		t.Fatal("expired-context Do advanced the virtual clock")
	}
	if st := sys.Stats(); st.Queries.Queries != 0 {
		t.Fatalf("expired-context Do touched the cache: %+v", st.Queries)
	}
	// The system is unharmed: the same request succeeds with a live ctx.
	if _, err := sys.Do(context.Background(), 0, RecognizeTask(ClassTree, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestDoDeadline(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()

	// A cold recognition takes hundreds of virtual milliseconds; one
	// nanosecond of budget must fail it — with the full result attached
	// and the clock advanced (the work happened, just too late).
	before := sys.Now()
	res, err := sys.Do(ctx, 0, RecognizeTask(ClassDog, 1).WithDeadline(time.Nanosecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if res.Recognition == nil || res.Recognition.Label == "" {
		t.Fatal("deadline miss must still carry the completed result")
	}
	if !sys.Now().After(before) {
		t.Fatal("deadline miss must advance the virtual clock")
	}
	// A generous budget passes.
	sys.Advance(time.Second)
	if _, err := sys.Do(ctx, 0, RecognizeTask(ClassDog, 2).WithDeadline(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestDoBatchStopsAtFirstFailure(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	results, err := sys.DoBatch(ctx, 0, []Request{
		RecognizeTask(ClassCar, 1),
		RenderTask("no-such-model"),
		RecognizeTask(ClassCar, 2), // never reached
	})
	if err == nil {
		t.Fatal("batch with a failing request succeeded")
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (success + failing partial)", len(results))
	}
	if results[0].Recognition == nil {
		t.Fatal("first result lost")
	}
}

func TestNewOptionValidation(t *testing.T) {
	if _, err := New(WithCachePolicy("belady")); err == nil {
		t.Fatal("unknown policy accepted through options")
	}
	if _, err := New(WithIndex("faiss")); err == nil {
		t.Fatal("unknown index accepted through options")
	}
	sys, err := New(
		WithParams(testParams()),
		WithCachePolicy("gdsf"),
		WithIndex("lsh"),
		WithClients(3),
		WithPrivacyK(2),
		WithCondition(Condition{Name: "90/30", MobileEdge: 90, EdgeCloud: 30}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Condition.Name != "90/30" {
		t.Fatalf("condition = %+v", sys.Condition)
	}
	if policy, _, index := sys.edge.Cache.Layout(); policy != "gdsf" {
		t.Fatalf("edge cache runs %s, want gdsf", policy)
	} else if _, lsh := index.(*feature.LSH); !lsh {
		t.Fatalf("edge cache searches a %T, want *feature.LSH", index)
	}
	if _, _, err := recognize(sys, 2, ClassCar, 1); err != nil {
		t.Fatalf("client 2 rejected: %v", err)
	}
}

// TestSystemStatsCoversSimilarHits locks in the satellite fix: the
// similarity-hit counter the v1 CacheStats discarded is visible in
// SystemStats, alongside coherent store counters.
func TestSystemStatsCoversSimilarHits(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	if _, err := sys.Do(ctx, 0, RecognizeTask(ClassBuilding, 1)); err != nil {
		t.Fatal(err)
	}
	sys.Advance(time.Second)
	// A different viewpoint of the same object: a *similar* hit.
	res, err := sys.Do(ctx, 0, RecognizeTask(ClassBuilding, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.Outcome.String() != "similar" {
		t.Skipf("second view resolved as %s, not similar; counter not exercised", res.Breakdown.Outcome)
	}
	st := sys.Stats()
	if st.Queries.SimilarHits == 0 {
		t.Fatalf("similar hits invisible in SystemStats: %+v", st.Queries)
	}
	if st.Queries.HitRatio() <= 0 {
		t.Fatalf("hit ratio = %v", st.Queries.HitRatio())
	}
	if st.Store.Entries == 0 || st.Store.BytesUsed == 0 || st.Store.Capacity == 0 {
		t.Fatalf("store stats incoherent: %+v", st.Store)
	}
	if st.Store.Insertions == 0 {
		t.Fatalf("store insertions missing: %+v", st.Store)
	}
}

// TestSystemMissesAreInflightFetches: a virtual System resolves every
// miss through the edge's in-flight table, as a TCP edge does; replayed
// serially, each miss leads its own flight.
func TestSystemMissesAreInflightFetches(t *testing.T) {
	sys := testSystem(t)
	ctx := context.Background()
	for _, req := range []Request{
		RenderTask(AnnotationModelID(ClassCar)),
		RenderTask(AnnotationModelID(ClassCar)),
		PanoTask("inflight-video", 0, Viewport{FOV: 1.5}),
		PanoTask("inflight-video", 1, Viewport{FOV: 1.5}),
	} {
		if _, err := sys.Do(ctx, 0, req); err != nil {
			t.Fatal(err)
		}
		sys.Advance(time.Second)
	}
	st := sys.Stats()
	misses := st.Queries.Queries - st.Queries.ExactHits - st.Queries.SimilarHits
	if misses != 3 || st.Inflight.Fetches != misses || st.Inflight.Coalesced != 0 {
		t.Fatalf("%d misses, in-flight stats %+v; want 3 misses, each one leader fetch", misses, st.Inflight)
	}
}

// TestShapeSpecParseErrors covers the bad-tc-spec paths explicitly for
// every entry point that accepts one.
func TestShapeSpecParseErrors(t *testing.T) {
	p := testParams()
	const bad = ShapeSpec("warp 9")

	if _, err := NewClient(context.Background(), "127.0.0.1:1", WithDialParams(p), WithDialShape(bad)); err == nil {
		t.Fatal("NewClient accepted a bad shape spec")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := NewEdgeServer(WithListener(ln), WithCloudShape(bad)).Serve(context.Background()); err == nil {
		t.Fatal("NewEdgeServer accepted a bad shape spec")
	}
	// The error message should point at the spec, not a generic failure.
	err = NewEdgeServer(WithListener(ln), WithCloudShape(bad)).Serve(context.Background())
	if err == nil || !strings.Contains(err.Error(), "warp") && !strings.Contains(err.Error(), "tc") {
		t.Fatalf("unhelpful shape error: %v", err)
	}
}

func TestCloudServerRejectsEdgeOnlyOptions(t *testing.T) {
	err := NewCloudServer(WithCloud("x"), WithFetchTimeout(time.Second)).Serve(context.Background())
	if err == nil {
		t.Fatal("cloud server accepted edge-only options")
	}
	if !strings.Contains(err.Error(), "edge-only") {
		t.Fatalf("unhelpful option error: %v", err)
	}
}

// TestServersV2EndToEnd runs the option-built cloud and edge, drives a
// client through NewClient with per-request contexts, and shuts both
// tiers down gracefully.
func TestServersV2EndToEnd(t *testing.T) {
	p := testParams()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cloudDone := make(chan error, 1)
	go func() {
		cloudDone <- NewCloudServer(WithListener(cloudLn), WithServeParams(p)).Serve(ctx)
	}()

	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithWorkers(4),
		WithQueueDepth(8),
		WithFetchTimeout(10*time.Second),
	)
	edgeDone := make(chan error, 1)
	go func() { edgeDone <- edge.Serve(ctx) }()

	cli, err := NewClient(ctx, edgeLn.Addr().String(), WithDialParams(p))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	res, lat, err := cli.RecognizeContext(ctx, ClassAvatar, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" || lat <= 0 {
		t.Fatalf("result %+v lat %v", res, lat)
	}
	if _, err := cli.RenderContext(ctx, AnnotationModelID(ClassAvatar)); err != nil {
		t.Fatal(err)
	}
	if st := edge.Stats(); st.CloudFetches == 0 {
		t.Fatalf("edge server stats = %+v, want cloud fetches recorded", st)
	}
	if edge.Addr() == nil {
		t.Fatal("edge Addr() nil while serving")
	}

	cancel() // graceful shutdown of both tiers
	for name, done := range map[string]chan error{"edge": edgeDone, "cloud": cloudDone} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s Serve = %v, want nil", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not shut down", name)
		}
	}
}
