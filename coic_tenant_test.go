package coic

// Multi-tenant tests at the public surface: legacy-hello interop (a
// pre-tenant client against a tenant-aware edge) and token
// authentication on the handshake. All run under -race in CI. The
// fairness ablation's ordering is pinned in internal/experiments.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// TestLegacyHelloRunsAsDefaultTenant speaks the pre-tenant wire protocol
// by hand — a version-0 one-byte hello, then a pano fetch — against an
// edge with tenants configured, and asserts the connection runs as the
// default tenant with its traffic admitted and accounted there.
func TestLegacyHelloRunsAsDefaultTenant(t *testing.T) {
	p := testParams()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go NewCloudServer(WithListener(cloudLn), WithServeParams(p)).Serve(ctx)

	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithTenantQuota("victim", TenantConfig{Token: "tok", Weight: 4}),
	)
	go edge.Serve(ctx)

	conn, err := net.Dial("tcp", edgeLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	// The legacy preamble: exactly the bytes a pre-tenant client sent.
	helloBody, err := wire.Hello{Version: 0, Mode: wire.HelloModeCoIC}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(helloBody) > 2 {
		t.Fatalf("legacy hello body is %d bytes, want the old 0-2 byte form", len(helloBody))
	}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgHello, RequestID: 1, Body: helloBody}); err != nil {
		t.Fatal(err)
	}
	fetch, err := wire.PanoFetch{VideoID: "legacy-vid", FrameIndex: 3}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgPanoFetch, RequestID: 2, Body: fetch}); err != nil {
		t.Fatal(err)
	}

	for {
		msg, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatalf("reading reply: %v", err)
		}
		if msg.RequestID == 1 {
			continue // hello ack
		}
		if msg.RequestID != 2 {
			t.Fatalf("unexpected reply id %d (type %v)", msg.RequestID, msg.Type)
		}
		if msg.Type != wire.MsgPanoReply {
			t.Fatalf("pano fetch answered with %v", msg.Type)
		}
		pr, err := wire.UnmarshalPanoReply(msg.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(pr.Data) == 0 {
			t.Fatal("empty pano frame")
		}
		break
	}

	stats := edge.Stats()
	def := stats.Tenants[DefaultTenant]
	if def.AdmittedBestEffort+def.AdmittedInteractive == 0 {
		t.Fatalf("legacy connection's traffic not accounted to %q: %+v", DefaultTenant, stats.Tenants)
	}
}

// TestTenantTokenHandshake dials with WithTenant against an edge whose
// tenant requires a token: the right token connects and the tenant's
// traffic lands in its own stats bucket; the wrong token is refused at
// the handshake.
func TestTenantTokenHandshake(t *testing.T) {
	p := testParams()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go NewCloudServer(WithListener(cloudLn), WithServeParams(p)).Serve(ctx)

	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithTenantQuota("acme", TenantConfig{Token: "opensesame"}),
	)
	go edge.Serve(ctx)
	addr := edgeLn.Addr().String()

	if _, err := NewClient(ctx, addr, WithDialParams(p), WithTenant("acme", "wrong")); err == nil {
		t.Fatal("bad token connected")
	}

	cli, err := NewClient(ctx, addr, WithDialParams(p), WithTenant("acme", "opensesame"))
	if err != nil {
		t.Fatalf("good token refused: %v", err)
	}
	defer cli.Close()
	if _, err := cli.PanoContext(ctx, "vid-a", 1, Viewport{FOV: 1.6}); err != nil {
		t.Fatal(err)
	}
	if got := edge.Stats().Tenants["acme"]; got.AdmittedInteractive+got.AdmittedBestEffort == 0 {
		t.Fatalf("acme traffic not accounted: %+v", edge.Stats().Tenants)
	}
}

// TestTenantQuotaRejectionSurfacesToClient floods past a tiny bucket and
// checks the client sees ErrQuotaExceeded while the edge counts the
// rejections against the tenant.
func TestTenantQuotaRejectionSurfacesToClient(t *testing.T) {
	p := testParams()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go NewCloudServer(WithListener(cloudLn), WithServeParams(p)).Serve(ctx)

	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithTenantQuota("metered", TenantConfig{Rate: 0.001, Burst: 2}),
	)
	go edge.Serve(ctx)

	cli, err := NewClient(ctx, edgeLn.Addr().String(), WithDialParams(p), WithTenant("metered", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var rejected bool
	for i := 0; i < 10; i++ {
		_, err := cli.PanoContext(ctx, "vid-q", i, Viewport{FOV: 1.6})
		if errors.Is(err, ErrQuotaExceeded) {
			rejected = true
			break
		}
		if err != nil {
			t.Fatalf("fetch %d: unexpected error %v", i, err)
		}
	}
	if !rejected {
		t.Fatal("no fetch rejected with ErrQuotaExceeded past a burst of 2")
	}
	if got := edge.Stats().QuotaRejections; got == 0 {
		t.Fatal("edge counted no quota rejections")
	}
}
