package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// TestMuxClientTasksRoundTrip drives all three task kinds through the
// demultiplexed client: build → RoundTrip → finish, against a live
// edge+cloud stack.
func TestMuxClientTasksRoundTrip(t *testing.T) {
	p := testParams()
	addr, _, stop := startSlowStack(t, p, 0, nil)
	defer stop()

	ctx := context.Background()
	m, err := DialMuxEdge(ctx, addr, NewClient(0, p), ModeCoIC, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Recognition (exec path), with QoS metadata on the wire.
	recognize := RecognizeTask(vision.ClassCar, 7)
	msg, err := m.Build(recognize, wire.QoSInteractive, time.Now().Add(time.Minute), 0)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := m.RoundTrip(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	res, src, err := m.Finish(recognize, reply)
	if err != nil || res.Label == "" {
		t.Fatalf("recognize = %+v, %v", res, err)
	}
	if src != wire.SourceCloud {
		t.Fatalf("first recognition source = %d, want cloud", src)
	}

	// Render (model fetch + load + draw).
	render := RenderTask(AnnotationModelID(vision.ClassCar.String()))
	msg, err = m.Build(render, wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reply, err = m.RoundTrip(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Finish(render, reply); err != nil {
		t.Fatal(err)
	}

	// Pano (fetch + crop).
	panoTask := PanoTask("mux-video", 1, pano.Viewport{FOV: 1.5})
	msg, err = m.Build(panoTask, wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reply, err = m.RoundTrip(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Finish(panoTask, reply); err != nil {
		t.Fatal(err)
	}

	// A remote failure surfaces as *RemoteError with the wire code.
	msg, err = m.Build(RenderTask("no/such/model"), wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RoundTrip(ctx, msg)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnknownModel {
		t.Fatalf("unknown model error = %v, want RemoteError{CodeUnknownModel}", err)
	}
	if !strings.Contains(re.Error(), "remote error") {
		t.Fatalf("RemoteError.Error() = %q", re.Error())
	}

	// The longest legal model ID makes the cloud's "unknown model <id>"
	// text outgrow an error frame; the code must still arrive, through
	// both tiers, instead of an empty error body the edge calls malformed.
	msg, err = m.Build(RenderTask(strings.Repeat("m", math.MaxUint16)), wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RoundTrip(ctx, msg)
	if !errors.As(err, &re) || re.Code != wire.CodeUnknownModel {
		t.Fatalf("unknown 65535-byte model error = %.80v, want RemoteError{CodeUnknownModel}", err)
	}
}

// TestErrorReplyFitsItsFrame: an error text longer than ErrorReply can
// carry is cut, not dropped — the frame still decodes and keeps its code.
func TestErrorReplyFitsItsFrame(t *testing.T) {
	reply := errorReply(7, wire.CodeUnknownModel, "core: unknown model %q", strings.Repeat("m", math.MaxUint16))
	er, err := wire.UnmarshalErrorReply(reply.Body)
	if err != nil {
		t.Fatalf("oversize error text produced an undecodable %d-byte body: %v", len(reply.Body), err)
	}
	if er.Code != wire.CodeUnknownModel || len(er.Msg) != math.MaxUint16 || !strings.HasPrefix(er.Msg, "core: unknown model") {
		t.Fatalf("reply = code %d, %d-byte text %.40q", er.Code, len(er.Msg), er.Msg)
	}
}

// TestMuxClientCancelMidFlight: a context death mid-round-trip returns
// promptly, cancels server-side, and leaves the connection usable for
// the next request.
func TestMuxClientCancelMidFlight(t *testing.T) {
	p := testParams()
	addr, es, stop := startSlowStack(t, p, 400*time.Millisecond, nil)
	defer stop()

	m, err := DialMuxEdge(context.Background(), addr, NewClient(0, p), ModeCoIC, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		waitFor(t, "the fetch to start", func() bool { return es.Edge.Inflight().Len() == 1 })
		cancel()
	}()
	msg, err := m.Build(PanoTask("mux-cancel", 3, pano.Viewport{}), wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.RoundTrip(ctx, msg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round trip = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation waited out the fetch")
	}
	waitFor(t, "the abandoned flight to abort", func() bool {
		return es.Edge.Inflight().Len() == 0
	})

	// The connection survives: the next request round-trips fine.
	msg, err = m.Build(PanoTask("mux-cancel", 4, pano.Viewport{}), wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RoundTrip(context.Background(), msg); err != nil {
		t.Fatalf("post-cancel request failed: %v", err)
	}
}

// TestMuxClientCloseFailsInflight: closing the connection fails pending
// round trips with ErrConnClosed and further Starts too.
func TestMuxClientCloseFailsInflight(t *testing.T) {
	p := testParams()
	cloudAddr, stopCloud := startHungCloud(t)
	defer stopCloud()
	addr, _, stop := startQoSEdge(t, cloudAddr, 1, 4)
	defer stop()

	m, err := DialMuxEdge(context.Background(), addr, NewClient(0, p), ModeCoIC, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	msg, err := m.Build(PanoTask("mux-close", 1, pano.Viewport{}), wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ch, err := m.Start(msg)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("closed connection delivered a reply")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pending reply channel never closed after Close")
	}
	if _, _, err := m.Start(msg); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Start after close = %v, want ErrConnClosed", err)
	}
	if err := m.SendCancel(1); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("SendCancel after close = %v, want ErrConnClosed", err)
	}
}

// TestMuxClientForgetDropsReply: a forgotten request's reply is dropped
// by the read loop instead of being delivered.
func TestMuxClientForgetDropsReply(t *testing.T) {
	p := testParams()
	addr, _, stop := startSlowStack(t, p, 100*time.Millisecond, nil)
	defer stop()

	m, err := DialMuxEdge(context.Background(), addr, NewClient(0, p), ModeCoIC, nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	msg, err := m.Build(PanoTask("mux-forget", 1, pano.Viewport{}), wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, ch, err := m.Start(msg)
	if err != nil {
		t.Fatal(err)
	}
	m.Forget(id)
	select {
	case reply := <-ch:
		t.Fatalf("forgotten request delivered %v", reply.Type)
	case <-time.After(time.Second):
	}
	// The connection is still aligned for later requests.
	msg, err = m.Build(PanoTask("mux-forget", 2, pano.Viewport{}), wire.QoSBestEffort, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RoundTrip(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
}
