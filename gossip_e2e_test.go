package coic

// End-to-end tests for gossip membership at the public surface: a
// gossiped edge exposes its ring version, member counts and migration
// counter through /metrics (promlint-clean) in agreement with
// ServerStats, and declaring a static fleet while asking for discovery
// is rejected at Serve.

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/obs"
)

func TestGossipEdgeExposesMembershipMetrics(t *testing.T) {
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
	// A seed node: gossips as itself with nobody to contact, booting on a
	// single-member ring it would grow as joiners find it.
	self := edgeLn.Addr().String()
	edge := NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithGossip(self),
		WithReplication(2),
	)
	go edge.Serve(ctx)

	ops := httptest.NewServer(edge.OpsHandler())
	defer ops.Close()

	cli := streamClient(t, self)
	defer cli.Close()
	if _, err := cli.Render(AnnotationModelID(ClassTree)); err != nil {
		t.Fatalf("render through a gossiped edge: %v", err)
	}

	var metrics map[string]float64
	waitForStats(t, "membership metrics to appear", func() bool {
		status, body := scrape(t, ops.URL, "/metrics")
		if status != http.StatusOK {
			t.Fatalf("/metrics status = %d", status)
		}
		metrics = parseMetrics(t, body)
		return metrics["coic_member_alive"] == 1
	})
	for sample, want := range map[string]float64{
		"coic_member_alive":         1,
		"coic_member_suspect":       0,
		"coic_member_dead":          0,
		"coic_migration_keys_total": 0, // nobody joined, nothing re-homed
	} {
		if got, ok := metrics[sample]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", sample, got, ok, want)
		}
	}
	if metrics["coic_ring_version"] < 1 {
		t.Errorf("coic_ring_version = %v, want >= 1 on a gossiped edge", metrics["coic_ring_version"])
	}

	// The scrape must agree with the server's own counters.
	stats := edge.Stats()
	if float64(stats.RingVersion) != metrics["coic_ring_version"] {
		t.Errorf("ServerStats.RingVersion = %d, /metrics says %v", stats.RingVersion, metrics["coic_ring_version"])
	}
	if stats.MembersAlive != 1 {
		t.Errorf("ServerStats.MembersAlive = %d, want 1", stats.MembersAlive)
	}
	if stats.MigratedKeys != 0 {
		t.Errorf("ServerStats.MigratedKeys = %d, want 0", stats.MigratedKeys)
	}

	// The new families must be exposition-clean alongside everything else.
	_, body := scrape(t, ops.URL, "/metrics")
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Errorf("metrics payload fails lint: %v", problems)
	}
}

// TestGossipAndFederationAreMutuallyExclusive pins the configuration
// guard: an edge must either declare its fleet (WithFederation) or
// discover it (WithGossip), never both — silently preferring one would
// hide an operator error.
func TestGossipAndFederationAreMutuallyExclusive(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	self := ln.Addr().String()
	edge := NewEdgeServer(
		WithListener(ln),
		WithServeParams(testParams()),
		WithCloud("localhost:1"),
		WithFederation(self, "127.0.0.1:2"),
		WithGossip(self),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = edge.Serve(ctx)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("Serve with both topologies = %v, want mutually-exclusive error", err)
	}
}
