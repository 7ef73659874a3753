package core

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// startStack brings up an in-process cloud + edge over loopback TCP and
// returns the edge address plus a shutdown func.
func startStack(t *testing.T, p Params) (string, *Edge, func()) {
	t.Helper()
	cloud := NewCloud(p)
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&CloudServer{Cloud: cloud}).Serve(cloudLn)

	edge := NewEdge(p)
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	es := &EdgeServer{Edge: edge, CloudAddr: cloudLn.Addr().String()}
	go es.Serve(edgeLn)

	return edgeLn.Addr().String(), edge, func() {
		edgeLn.Close()
		cloudLn.Close()
	}
}

// taskClient drives whole tasks over a MuxClient — build, round trip,
// finish — with measured wall-clock latency: the one-request-at-a-time
// convenience these tests speak.
type taskClient struct{ *MuxClient }

func dialEdge(addr string, client *Client, mode Mode, wrap ConnWrapper) (*taskClient, error) {
	m, err := DialMuxEdge(context.Background(), addr, client, mode, wrap, "", "")
	if err != nil {
		return nil, err
	}
	return &taskClient{m}, nil
}

func (c *taskClient) do(ctx context.Context, t Task) (*wire.RecognitionResult, time.Duration, error) {
	start := time.Now()
	msg, err := c.Build(t, wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		return nil, 0, err
	}
	reply, err := c.RoundTrip(ctx, msg)
	if err != nil {
		return nil, 0, err
	}
	res, _, err := c.Finish(t, reply)
	return res, time.Since(start), err
}

func (c *taskClient) Recognize(class vision.Class, viewSeed uint64) (wire.RecognitionResult, time.Duration, error) {
	res, lat, err := c.do(context.Background(), RecognizeTask(class, viewSeed))
	if err != nil {
		return wire.RecognitionResult{}, lat, err
	}
	return *res, lat, nil
}

func (c *taskClient) Render(modelID string) (time.Duration, error) {
	_, lat, err := c.do(context.Background(), RenderTask(modelID))
	return lat, err
}

func (c *taskClient) PanoContext(ctx context.Context, videoID string, frameIdx int, vp pano.Viewport) (time.Duration, error) {
	_, lat, err := c.do(ctx, PanoTask(videoID, frameIdx, vp))
	return lat, err
}

func (c *taskClient) Pano(videoID string, frameIdx int, vp pano.Viewport) (time.Duration, error) {
	return c.PanoContext(context.Background(), videoID, frameIdx, vp)
}

func TestTCPRecognizeMissThenHit(t *testing.T) {
	p := testParams()
	addr, edge, stop := startStack(t, p)
	defer stop()

	cli, err := dialEdge(addr, NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	res1, lat1, err := cli.Recognize(vision.ClassStopSign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Label == "" || res1.AnnotationModelID == "" {
		t.Fatalf("empty result: %+v", res1)
	}
	res2, _, err := cli.Recognize(vision.ClassStopSign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Label != res1.Label {
		t.Fatalf("labels diverge: %q vs %q", res2.Label, res1.Label)
	}
	st := edge.Stats()
	if st.Lookups[wire.TaskRecognize] != 2 {
		t.Fatalf("lookups = %d", st.Lookups[wire.TaskRecognize])
	}
	hits := st.Exact[wire.TaskRecognize] + st.Similar[wire.TaskRecognize]
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (second request must hit)", hits)
	}
	_ = lat1
}

func TestTCPRenderAndPano(t *testing.T) {
	p := testParams()
	addr, edge, stop := startStack(t, p)
	defer stop()

	cli, err := dialEdge(addr, NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Render(AnnotationModelID("tree")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Render(AnnotationModelID("tree")); err != nil {
		t.Fatal(err)
	}
	if got := edge.Stats().Exact[wire.TaskRender]; got != 1 {
		t.Fatalf("render hits = %d", got)
	}

	vp := pano.Viewport{Yaw: 0.4, FOV: 1.5}
	if _, err := cli.Pano("tcp-video", 3, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Pano("tcp-video", 3, vp); err != nil {
		t.Fatal(err)
	}
	if got := edge.Stats().Exact[wire.TaskPano]; got != 1 {
		t.Fatalf("pano hits = %d", got)
	}
}

func TestTCPOriginModeBypassesCache(t *testing.T) {
	p := testParams()
	addr, edge, stop := startStack(t, p)
	defer stop()

	cli, err := dialEdge(addr, NewClient(0, p), ModeOrigin, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, _, err := cli.Recognize(vision.ClassCar, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cli.Recognize(vision.ClassCar, 2); err != nil {
		t.Fatal(err)
	}
	st := edge.Stats()
	if st.Lookups[wire.TaskRecognize] != 0 || st.Inserts != 0 {
		t.Fatalf("origin mode touched the cache: %+v", st)
	}
}

func TestTCPUnknownModelError(t *testing.T) {
	p := testParams()
	addr, _, stop := startStack(t, p)
	defer stop()

	cli, err := dialEdge(addr, NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Render("not-a-model"); err == nil {
		t.Fatal("unknown model did not error")
	}
	// The connection must still be usable after an error reply.
	if _, err := cli.Render(AnnotationModelID("dog")); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestTCPShapedConnectionStillCorrect(t *testing.T) {
	p := testParams()
	addr, _, stop := startStack(t, p)
	defer stop()

	// Client uplink shaped to 20 Mbit: the 64KB frame takes ~25ms extra.
	wrap := func(c net.Conn) net.Conn { return netsim.NewShaper(c, 20_000_000, time.Millisecond) }
	cli, err := dialEdge(addr, NewClient(0, p), ModeCoIC, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	res, lat, err := cli.Recognize(vision.ClassPerson, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label == "" {
		t.Fatal("no result over shaped conn")
	}
	if lat <= 0 {
		t.Fatal("latency not measured")
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	p := testParams()
	addr, edge, stop := startStack(t, p)
	defer stop()

	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			cli, err := dialEdge(addr, NewClient(i, p), ModeCoIC, nil)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for j := 0; j < 3; j++ {
				if _, err := cli.Render(AnnotationModelID("car")); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := edge.Stats()
	if st.Lookups[wire.TaskRender] != n*3 {
		t.Fatalf("lookups = %d, want %d", st.Lookups[wire.TaskRender], n*3)
	}
	hits := st.Exact[wire.TaskRender]
	if hits < n*3-n { // at most one miss per concurrent first-request race
		t.Fatalf("hits = %d, want ≥ %d — cross-user sharing broken", hits, n*3-n)
	}
}

func TestTCPCloudUnreachable(t *testing.T) {
	// Edge with a dead cloud address: cache hits must still be served,
	// misses must fail with a protocol error rather than hanging.
	p := testParams()
	edge := NewEdge(p)
	// Pre-warm the cache directly so one request can hit.
	id := AnnotationModelID("car")
	cloud := NewCloud(p)
	data, _, err := cloud.FetchModel(id)
	if err != nil {
		t.Fatal(err)
	}
	edge.InsertTenant(DefaultTenant, ModelDescriptor(id), data, 1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	es := &EdgeServer{Edge: edge, CloudAddr: "127.0.0.1:1"} // nothing listens there
	go es.Serve(ln)

	cli, err := dialEdge(ln.Addr().String(), NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Hit path works without the cloud.
	if _, err := cli.Render(id); err != nil {
		t.Fatalf("cache hit needed the cloud: %v", err)
	}
	// Miss path errors out cleanly.
	if _, err := cli.Render(AnnotationModelID("tree")); err == nil {
		t.Fatal("miss with dead cloud did not error")
	}
}
