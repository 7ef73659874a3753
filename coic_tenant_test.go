package coic

// Multi-tenant tests at the public surface: a tenantless hello against a
// tenant-aware edge, the hellos the edge refuses, and token
// authentication on the handshake. All run under -race in CI. The
// fairness ablation's ordering is pinned in internal/experiments.

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// startTenantEdge serves a cloud and an edge on which tenant "victim"
// needs a token, until the test ends.
func startTenantEdge(t *testing.T, p Params) (*Server, string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
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
	return edge, edgeLn.Addr().String()
}

// TestTenantlessHelloRunsAsDefaultTenant speaks the wire protocol by hand
// — a structured hello naming no tenant, then a pano fetch — against an
// edge with tenants configured, and asserts the connection runs as the
// default tenant with its traffic admitted and accounted there.
func TestTenantlessHelloRunsAsDefaultTenant(t *testing.T) {
	edge, addr := startTenantEdge(t, testParams())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	helloBody, err := wire.Hello{Version: wire.HelloVersion, Mode: wire.HelloModeCoIC}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgHello, RequestID: 1, Body: helloBody}); err != nil {
		t.Fatal(err)
	}
	fetch, err := wire.PanoFetch{VideoID: "tenantless-vid", FrameIndex: 3}.Marshal()
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
		t.Fatalf("tenantless connection's traffic not accounted to %q: %+v", DefaultTenant, stats.Tenants)
	}
}

// TestBadFirstHelloClosesConnection: a first hello the edge refuses is
// answered CodeBadRequest and the connection closes before any request
// is served. That covers the retired 1-byte version-0 hello, and a hello
// with a wrong token whose unknown mode would otherwise be refused
// without closing.
func TestBadFirstHelloClosesConnection(t *testing.T) {
	_, addr := startTenantEdge(t, testParams())
	structured, err := wire.Hello{Version: wire.HelloVersion, Mode: 7, Tenant: "victim", Token: "guess"}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"version-0":               {wire.HelloModeCoIC},
		"unknown mode, bad token": structured,
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgHello, RequestID: 1, Body: body}); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		er, err := wire.UnmarshalErrorReply(reply.Body)
		if reply.Type != wire.MsgError || err != nil || er.Code != wire.CodeBadRequest {
			t.Fatalf("%s: hello answered %v %+v (%v), want CodeBadRequest", name, reply.Type, er, err)
		}
		if m, err := wire.ReadMessage(conn); err != io.EOF {
			t.Fatalf("%s: after the refusal read %v, %v; want EOF", name, m.Type, err)
		}
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
