package coic

// Tests for the streaming client API over a live in-process TCP stack:
// out-of-order completion across QoS classes, window backpressure,
// per-ticket cancellation, and deadline shedding at the edge. All of
// them run under -race in CI.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// startStreamStack brings up a cloud and an edge whose uplink pays
// cloudDelay each way, returning the edge Server (for Stats), its
// address, and a stop function.
func startStreamStack(t testing.TB, cloudDelay time.Duration, workers, queue int) (*Server, string, func()) {
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
	// A fat link with pure propagation delay: misses stay in flight for
	// ~2×cloudDelay without throttling throughput.
	shape := ShapeSpec("rate 1000mbit delay " + cloudDelay.String())
	if cloudDelay == 0 {
		shape = ""
	}
	edge := NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithCloudShape(shape),
		WithWorkers(workers),
		WithQueueDepth(queue),
	)
	go edge.Serve(ctx)
	return edge, edgeLn.Addr().String(), cancel
}

func streamClient(t testing.TB, addr string) *Client {
	t.Helper()
	cli, err := NewClient(context.Background(), addr, WithDialParams(testParams()))
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

func waitForStats(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamInteractiveCompletesBeforeQueuedBestEffort is the tentpole
// acceptance test at the public surface: with one worker held busy, an
// interactive request submitted after a best-effort one completes first
// — the scheduler dispatches it first and the unordered reply path
// delivers it without head-of-line blocking.
func TestStreamInteractiveCompletesBeforeQueuedBestEffort(t *testing.T) {
	edge, addr, stop := startStreamStack(t, 250*time.Millisecond, 1, 16)
	defer stop()
	cli := streamClient(t, addr)
	defer cli.Close()

	ctx := context.Background()
	st, err := cli.Stream(ctx, WithWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	results := st.Results()

	// Occupy the lone worker with a best-effort miss.
	if _, err := st.Submit(ctx, PanoTask("ooo-video", 1, Viewport{FOV: 1.5})); err != nil {
		t.Fatal(err)
	}
	waitForStats(t, "the first fetch to start", func() bool { return edge.Stats().CloudFetches == 1 })

	// Queue another best-effort miss, then an interactive one.
	if _, err := st.Submit(ctx, PanoTask("ooo-video", 2, Viewport{FOV: 1.5})); err != nil {
		t.Fatal(err)
	}
	waitForStats(t, "the best-effort request to queue", func() bool {
		return edge.Stats().AdmittedBestEffort == 2
	})
	ticket, err := st.Submit(ctx, PanoTask("ooo-video", 3, Viewport{FOV: 1.5}).WithQoS(QoSInteractive))
	if err != nil {
		t.Fatal(err)
	}

	var order []int
	for i := 0; i < 3; i++ {
		comp := <-results
		if comp.Err != nil {
			t.Fatalf("completion %d failed: %v", i, comp.Err)
		}
		order = append(order, comp.Request.Pano.Frame)
	}
	// Frame 1 holds the worker, so it finishes first; the interactive
	// frame 3 must beat the queued best-effort frame 2.
	if order[1] != 3 {
		t.Fatalf("completion order = %v, want the interactive frame (3) before the queued best-effort frame (2)", order)
	}
	if comp, err := ticket.Await(ctx); err != nil || comp.Request.Pano.Frame != 3 {
		t.Fatalf("Await = %+v, %v", comp, err)
	}
	if st.Close() != nil {
		t.Fatal("close failed")
	}
	if _, ok := <-results; ok {
		t.Fatal("results channel still open after Close")
	}
	if got := edge.Stats().AdmittedInteractive; got != 1 {
		t.Fatalf("AdmittedInteractive = %d, want 1", got)
	}
}

// TestStreamSubmitBackpressure: Submit is non-blocking while in-flight <
// window and blocks beyond it until a completion frees a slot.
func TestStreamSubmitBackpressure(t *testing.T) {
	_, addr, stop := startStreamStack(t, 400*time.Millisecond, 4, 16)
	defer stop()
	cli := streamClient(t, addr)
	defer cli.Close()

	ctx := context.Background()
	st, err := cli.Stream(ctx, WithWindow(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	start := time.Now()
	t1, err := st.Submit(ctx, PanoTask("bp-video", 1, Viewport{FOV: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := st.Submit(ctx, PanoTask("bp-video", 2, Viewport{FOV: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("submits inside the window took %v — they must not wait for replies", elapsed)
	}

	third := make(chan error, 1)
	go func() {
		_, err := st.Submit(ctx, PanoTask("bp-video", 3, Viewport{FOV: 1.5}))
		third <- err
	}()
	select {
	case err := <-third:
		t.Fatalf("third submit returned (%v) with the window full — no backpressure", err)
	case <-time.After(150 * time.Millisecond):
		// Blocked, as it should be: both slots are held by in-flight
		// fetches that take ~800ms.
	}
	if _, err := t1.Await(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-third:
		if err != nil {
			t.Fatalf("third submit failed after a slot freed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("third submit still blocked after a completion freed a slot")
	}
	if _, err := t2.Await(ctx); err != nil {
		t.Fatal(err)
	}

	// A submit blocked on the window honours its context.
	st2, err := cli.Stream(ctx, WithWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Submit(ctx, PanoTask("bp-video", 4, Viewport{FOV: 1.5})); err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := st2.Submit(expired, PanoTask("bp-video", 5, Viewport{FOV: 1.5})); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit with expiring ctx returned %v, want context.DeadlineExceeded", err)
	}
}

// TestStreamTicketCancelLeavesOthersLive: cancelling one in-flight
// ticket completes it with context.Canceled while a concurrent ticket on
// the same stream still delivers its result.
func TestStreamTicketCancelLeavesOthersLive(t *testing.T) {
	edge, addr, stop := startStreamStack(t, 400*time.Millisecond, 4, 16)
	defer stop()
	cli := streamClient(t, addr)
	defer cli.Close()

	ctx := context.Background()
	st, err := cli.Stream(ctx, WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	doomed, err := st.Submit(ctx, PanoTask("cancel-video", 1, Viewport{FOV: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := st.Submit(ctx, PanoTask("cancel-video", 2, Viewport{FOV: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	waitForStats(t, "both fetches to start", func() bool { return edge.Stats().CloudFetches == 2 })
	doomed.Cancel()

	comp, err := doomed.Await(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ticket completed with %v, want context.Canceled", err)
	}
	if comp.ID != doomed.ID() {
		t.Fatalf("completion id %d for ticket %d", comp.ID, doomed.ID())
	}
	if comp2, err := survivor.Await(ctx); err != nil || comp2.Err != nil {
		t.Fatalf("survivor failed after its neighbour was cancelled: %v / %v", err, comp2.Err)
	}
}

// TestStreamDeadlineShedInQueue: a request whose wall-clock deadline
// expires while queued behind a busy worker is shed at the edge —
// visible as ErrDeadlineExceeded on the completion, a DeadlineSheds
// counter tick, and no extra cloud fetch.
func TestStreamDeadlineShedInQueue(t *testing.T) {
	edge, addr, stop := startStreamStack(t, 400*time.Millisecond, 1, 16)
	defer stop()
	cli := streamClient(t, addr)
	defer cli.Close()

	ctx := context.Background()
	st, err := cli.Stream(ctx, WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, err := st.Submit(ctx, PanoTask("shed-video", 1, Viewport{FOV: 1.5})); err != nil {
		t.Fatal(err)
	}
	waitForStats(t, "the first fetch to start", func() bool { return edge.Stats().CloudFetches == 1 })

	doomed, err := st.Submit(ctx, PanoTask("shed-video", 2, Viewport{FOV: 1.5}).
		WithQoS(QoSInteractive).WithDeadline(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := doomed.Await(ctx)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued-past-deadline ticket completed with %v, want ErrDeadlineExceeded", err)
	}
	if comp.Latency <= 0 {
		t.Fatal("completion latency not stamped")
	}
	stats := edge.Stats()
	if stats.DeadlineSheds != 1 {
		t.Fatalf("DeadlineSheds = %d, want 1", stats.DeadlineSheds)
	}
	if stats.CloudFetches != 1 {
		t.Fatalf("CloudFetches = %d, want 1 — the shed request must not reach the cloud", stats.CloudFetches)
	}
}

// TestLegacyClientMethodsOverMux: the per-task client surface — kept
// verbatim on the demultiplexed Client — still works, including every
// context-free convenience.
func TestLegacyClientMethodsOverMux(t *testing.T) {
	_, addr, stop := startStreamStack(t, 0, 4, 16)
	defer stop()

	p := testParams()
	cli, err := NewClient(context.Background(), addr,
		WithDialParams(p), WithDialMode(ModeCoIC), WithClientID(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.Client == nil || cli.Mode != ModeCoIC {
		t.Fatalf("client fields = %+v", cli)
	}

	res, lat, err := cli.Recognize(ClassTree, 9)
	if err != nil || res.Label == "" || lat <= 0 {
		t.Fatalf("Recognize = %+v, %v, %v", res, lat, err)
	}
	if _, err := cli.Render(AnnotationModelID(ClassTree)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Pano("legacy-video", 0, Viewport{FOV: 1.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.PanoContext(context.Background(), "legacy-video", 1, Viewport{FOV: 1.5}); err != nil {
		t.Fatal(err)
	}
	// An unknown model surfaces a remote error, not a hang.
	if _, err := cli.Render("no/such/model"); err == nil {
		t.Fatal("unknown model succeeded")
	}
}

// TestPanoFrameOutOfRangeRejectedEverywhere: the wire carries the frame
// index as a u32, so an index outside it must be refused on the device —
// by the blocking client, by a Stream and by the virtual-time System
// alike — before anything is sent. Over TCP it used to wrap (frame -1
// was fetched, served and cached as frame 4 294 967 295) while virtual
// time failed at the cloud.
func TestPanoFrameOutOfRangeRejectedEverywhere(t *testing.T) {
	edge, addr, stop := startStreamStack(t, 0, 4, 16)
	defer stop()
	cli := streamClient(t, addr)
	defer cli.Close()
	st, err := cli.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sys := testSystem(t)

	vp := Viewport{FOV: 1.5}
	for _, frame := range []int{-1, 1 << 32} {
		if _, err := cli.Pano("range-video", frame, vp); err == nil {
			t.Errorf("Client.Pano served frame %d", frame)
		}
		if _, err := st.Submit(context.Background(), PanoTask("range-video", frame, vp)); err == nil {
			t.Errorf("Stream.Submit accepted frame %d", frame)
		}
		if _, err := sys.Do(context.Background(), 0, PanoTask("range-video", frame, vp)); err == nil {
			t.Errorf("System.Do served frame %d", frame)
		}
	}
	if st := edge.Stats(); st.AdmittedInteractive+st.AdmittedBestEffort != 0 {
		t.Errorf("out-of-range requests reached the edge: %+v", st)
	}
	// The largest index the wire can name is still a request.
	if _, err := cli.Pano("range-video", 1<<32-1, vp); err != nil {
		t.Errorf("frame 1<<32-1: %v", err)
	}
}

// TestRunQoSSmoke exercises the ablation end to end with a tiny request
// count: three rows, fifo strictly slower than the scheduled row at p99
// is timing-dependent, so only the table's shape is asserted.
func TestRunQoSSmoke(t *testing.T) {
	tab, err := RunQoS(testParams(), 3, 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Rows()
	if len(rows) != 3 {
		t.Fatalf("RunQoS rows = %d, want 3", len(rows))
	}
	for i, want := range []string{"none", "fifo", "qos"} {
		if rows[i][0] != want {
			t.Fatalf("row %d = %q, want %q", i, rows[i][0], want)
		}
	}
}

// TestStreamContextCancelsInflight: killing the stream's context cancels
// every in-flight ticket at the edge; completions surface as canceled.
func TestStreamContextCancelsInflight(t *testing.T) {
	edge, addr, stop := startStreamStack(t, 500*time.Millisecond, 4, 16)
	defer stop()
	cli := streamClient(t, addr)
	defer cli.Close()

	sctx, cancel := context.WithCancel(context.Background())
	st, err := cli.Stream(sctx, WithWindow(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ctx := context.Background()
	t1, err := st.Submit(ctx, PanoTask("sctx-video", 1, Viewport{FOV: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := st.Submit(ctx, PanoTask("sctx-video", 2, Viewport{FOV: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	waitForStats(t, "both fetches to start", func() bool { return edge.Stats().CloudFetches == 2 })
	cancel()

	for _, tk := range []*Ticket{t1, t2} {
		if _, err := tk.Await(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("ticket completed with %v after stream ctx death, want context.Canceled", err)
		}
	}
	if _, err := st.Submit(ctx, PanoTask("sctx-video", 3, Viewport{FOV: 1.5})); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit on a dead stream = %v, want context.Canceled", err)
	}
}
