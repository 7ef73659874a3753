package coic

// End-to-end tests for the live operations plane: boot a real cloud+edge
// stack, drive QoS traffic through a stream, then scrape the edge's
// OpsHandler the way Prometheus would and assert the counters agree with
// ServerStats. Readiness is exercised by killing the cloud under a live
// edge.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/obs"
)

// scrape GETs path from the ops server and returns status and body.
func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// parseMetrics indexes a Prometheus text payload by full sample name
// (labels included, exactly as rendered).
func parseMetrics(t *testing.T, payload string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(payload, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestOpsMetricsEndToEnd(t *testing.T) {
	edge, addr, stop := startStreamStack(t, 0, 2, 32)
	defer stop()

	ops := httptest.NewServer(edge.OpsHandler())
	defer ops.Close()

	cli := streamClient(t, addr)
	defer cli.Close()
	ctx := context.Background()
	st, err := cli.Stream(ctx, WithWindow(8))
	if err != nil {
		t.Fatal(err)
	}
	results := st.Results()

	// Three best-effort + three interactive panorama fetches, distinct
	// frames so each one misses and pays a cloud fetch.
	const perClass = 3
	for i := 0; i < 2*perClass; i++ {
		req := PanoTask("ops-video", i, Viewport{FOV: 1.5})
		if i%2 == 1 {
			req = req.WithQoS(QoSInteractive)
		}
		if _, err := st.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*perClass; i++ {
		if comp := <-results; comp.Err != nil {
			t.Fatalf("completion %d failed: %v", i, comp.Err)
		}
	}

	// The worker accounts a request after handing its reply to the
	// writer, so the scrape can trail the client's completion by a
	// moment — poll until the counters converge.
	var metrics map[string]float64
	waitForStats(t, "outcome counters to converge", func() bool {
		status, body := scrape(t, ops.URL, "/metrics")
		if status != http.StatusOK {
			t.Fatalf("/metrics status = %d", status)
		}
		metrics = parseMetrics(t, body)
		return metrics[`coic_requests_total{tenant="default",class="best-effort",outcome="ok"}`] == perClass &&
			metrics[`coic_requests_total{tenant="default",class="interactive",outcome="ok"}`] == perClass
	})

	// The scrape must agree with the server's own counters.
	stats := edge.Stats()
	for sample, want := range map[string]float64{
		`coic_sched_admitted_total{class="best-effort"}`:                               float64(stats.AdmittedBestEffort),
		`coic_sched_admitted_total{class="interactive"}`:                               float64(stats.AdmittedInteractive),
		`coic_sched_deadline_sheds_total`:                                              float64(stats.DeadlineSheds),
		`coic_sched_overloads_total`:                                                   float64(stats.Overloads),
		`coic_cloud_fetches_total`:                                                     float64(stats.CloudFetches),
		`coic_requests_total{tenant="default",class="best-effort",outcome="deadline"}`: 0,
		`coic_connections_total`:                                                       1,
		`coic_connections_active`:                                                      1,
	} {
		if got, ok := metrics[sample]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", sample, got, ok, want)
		}
	}

	// Every pipeline stage histogram observed the traffic: +Inf bucket
	// and _count are nonzero, and cloud_fetch matches the fetch counter.
	for _, stage := range []string{"decode", "cache_lookup", "sched_wait", "exec", "cloud_fetch", "reply_write"} {
		inf := `coic_stage_duration_seconds_bucket{stage="` + stage + `",le="+Inf"}`
		if metrics[inf] == 0 {
			t.Errorf("stage %q histogram recorded nothing", stage)
		}
		count := `coic_stage_duration_seconds_count{stage="` + stage + `"}`
		if metrics[count] != metrics[inf] {
			t.Errorf("stage %q _count = %v, want +Inf bucket %v", stage, metrics[count], metrics[inf])
		}
	}
	if got := metrics[`coic_stage_duration_seconds_count{stage="cloud_fetch"}`]; got != float64(stats.CloudFetches) {
		t.Errorf("cloud_fetch histogram count = %v, want CloudFetches %d", got, stats.CloudFetches)
	}
	if got := metrics[`coic_stage_duration_seconds_count{stage="exec"}`]; got != 2*perClass {
		t.Errorf("exec histogram count = %v, want %d", got, 2*perClass)
	}

	// The payload itself must be exposition-clean.
	_, body := scrape(t, ops.URL, "/metrics")
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Errorf("metrics payload fails lint: %v", problems)
	}

	if status, body := scrape(t, ops.URL, "/healthz"); status != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", status, body)
	}
	if status, _ := scrape(t, ops.URL, "/readyz"); status != http.StatusOK {
		t.Errorf("/readyz = %d, want 200 with the cloud up", status)
	}
}

// TestOpsLedgerAgreesWithStats drives a mixed run — two tenants, one of
// them rate-limited, both service classes, an overload, a deadline shed
// and a quota rejection — and checks that Stats and /metrics are two
// views of one ledger: every scheduler total and every per-tenant series
// scrapes to exactly the value ServerStats reports.
func TestOpsLedgerAgreesWithStats(t *testing.T) {
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
	// One worker and one queue slot per connection, misses in flight for
	// ~400ms: the second request on a connection queues behind the first
	// and the third finds the queue full.
	edge := NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithCloudShape("rate 1000mbit delay 200ms"),
		WithWorkers(1),
		WithQueueDepth(1),
		WithTenantQuota("metered", TenantConfig{Rate: 0.001, Burst: 2}),
	)
	go edge.Serve(ctx)
	ops := httptest.NewServer(edge.OpsHandler())
	defer ops.Close()

	// Each tenant's connection: one request holds the worker, a second
	// (interactive) queues behind it, a third is refused.
	var tickets []*Ticket
	for i, tenant := range []string{"acme", "metered"} {
		cli, err := NewClient(ctx, edgeLn.Addr().String(), WithDialParams(p), WithTenant(tenant, ""))
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		st, err := cli.Stream(ctx, WithWindow(4))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		queued := PanoTask("ledger-"+tenant, 2, Viewport{FOV: 1.5}).WithQoS(QoSInteractive)
		if tenant == "metered" {
			// Expires long before the worker frees up: shed, not served.
			// (Its bucket's burst of 2 then refuses the third request
			// before the queue is even consulted.)
			queued = queued.WithDeadline(50 * time.Millisecond)
		}
		for j, req := range []Request{
			PanoTask("ledger-"+tenant, 1, Viewport{FOV: 1.5}),
			queued,
			PanoTask("ledger-"+tenant, 3, Viewport{FOV: 1.5}),
		} {
			tk, err := st.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
			switch j {
			case 0:
				waitForStats(t, "the first fetch to hold the worker", func() bool {
					return edge.Stats().CloudFetches == uint64(i+1)
				})
			case 1:
				waitForStats(t, "the second request to queue", func() bool {
					return edge.Stats().AdmittedInteractive == uint64(i+1)
				})
			}
		}
	}
	wantErrs := []error{nil, nil, ErrOverloaded, nil, ErrDeadlineExceeded, ErrQuotaExceeded}
	for i, tk := range tickets {
		if _, err := tk.Await(ctx); !errors.Is(err, wantErrs[i]) {
			t.Fatalf("request %d completed with %v, want %v", i, err, wantErrs[i])
		}
	}

	stats := edge.Stats()
	if stats.Overloads != 1 || stats.DeadlineSheds != 1 || stats.QuotaRejections != 1 ||
		stats.AdmittedBestEffort != 2 || stats.AdmittedInteractive != 2 || len(stats.Tenants) != 2 {
		t.Fatalf("the run was not the mixed one intended: %+v", stats)
	}
	status, body := scrape(t, ops.URL, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	metrics := parseMetrics(t, body)
	want := map[string]uint64{
		`coic_sched_admitted_total{class="best-effort"}`: stats.AdmittedBestEffort,
		`coic_sched_admitted_total{class="interactive"}`: stats.AdmittedInteractive,
		`coic_sched_deadline_sheds_total`:                stats.DeadlineSheds,
		`coic_sched_overloads_total`:                     stats.Overloads,
		// Refusals are counted here, though the request log skips them.
		`coic_requests_total{tenant="acme",class="best-effort",outcome="overloaded"}`: stats.Overloads,
		`coic_requests_total{tenant="metered",class="best-effort",outcome="quota"}`:   stats.QuotaRejections,
	}
	var quota uint64
	for tenant, ts := range stats.Tenants {
		want[`coic_tenant_admitted_total{tenant="`+tenant+`",class="best-effort"}`] = ts.AdmittedBestEffort
		want[`coic_tenant_admitted_total{tenant="`+tenant+`",class="interactive"}`] = ts.AdmittedInteractive
		want[`coic_tenant_quota_rejections_total{tenant="`+tenant+`"}`] = ts.QuotaRejections
		quota += ts.QuotaRejections
	}
	if quota != stats.QuotaRejections {
		t.Errorf("per-tenant quota rejections sum to %d, total says %d", quota, stats.QuotaRejections)
	}
	for sample, v := range want {
		if got, ok := metrics[sample]; !ok || got != float64(v) {
			t.Errorf("%s = %v (present=%v), ServerStats says %d", sample, got, ok, v)
		}
	}
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Errorf("metrics payload fails lint: %v", problems)
	}
	// The slow-request ring keeps the shed but neither refusal.
	if _, body := scrape(t, ops.URL, "/debug/requests"); !strings.Contains(body, `"outcome":"deadline"`) ||
		strings.Contains(body, `"outcome":"quota"`) || strings.Contains(body, `"outcome":"overloaded"`) {
		t.Errorf("/debug/requests = %s, want the deadline shed and no refusal", body)
	}
}

// TestOpsReadinessFlipsWhenCloudDrops boots the stack with the cloud on
// its own lifetime, confirms the edge probes ready, then kills the cloud
// and watches /readyz flip to 503: the edge is alive (healthz) but
// cannot serve misses, which is exactly what a load balancer must see.
func TestOpsReadinessFlipsWhenCloudDrops(t *testing.T) {
	p := testParams()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cloudCtx, stopCloud := context.WithCancel(ctx)
	defer stopCloud()
	go NewCloudServer(WithListener(cloudLn), WithServeParams(p)).Serve(cloudCtx)

	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	edge := NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
	)
	go edge.Serve(ctx)

	ops := httptest.NewServer(edge.OpsHandler())
	defer ops.Close()

	// Ready once Serve has registered the listener and the cloud accepts.
	waitForStats(t, "the edge to probe ready", func() bool {
		status, _ := scrape(t, ops.URL, "/readyz")
		return status == http.StatusOK
	})

	// Kill the cloud; its listener closes and the edge's dial probe fails.
	stopCloud()
	waitForStats(t, "readiness to flip after the cloud died", func() bool {
		status, body := scrape(t, ops.URL, "/readyz")
		return status == http.StatusServiceUnavailable && strings.Contains(body, "cloud link down")
	})

	// Liveness is unaffected: the edge process itself is healthy.
	if status, _ := scrape(t, ops.URL, "/healthz"); status != http.StatusOK {
		t.Errorf("/healthz = %d after cloud death, want 200", status)
	}
}

// syncBuffer is a bytes.Buffer safe for the concurrent writes of a slog
// handler and the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerLogsSlowRequests checks that a server logs its slow-request
// warnings through slog.Default(), carrying the request's trace ID, so an
// operator can grep a daemon's log for a trace a client printed. That
// holds for a stream request and for a per-task call alike.
func TestServerLogsSlowRequests(t *testing.T) {
	var logged syncBuffer
	oldLogger, oldOut, oldFlags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	t.Cleanup(func() {
		slog.SetDefault(oldLogger)
		log.SetOutput(oldOut)
		log.SetFlags(oldFlags)
	})

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
	go NewEdgeServer(
		WithListener(edgeLn),
		WithServeParams(p),
		WithCloud(cloudLn.Addr().String()),
		WithSlowRequestThreshold(time.Nanosecond),
	).Serve(ctx)

	cli := streamClient(t, edgeLn.Addr().String())
	defer cli.Close()
	st, err := cli.Stream(ctx, WithWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	const trace = 0xC0FFEE5107
	if _, err := st.Submit(ctx, PanoTask("slow-log", 1, Viewport{FOV: 1.5}).WithTraceID(trace)); err != nil {
		t.Fatal(err)
	}
	if comp := <-st.Results(); comp.Err != nil {
		t.Fatal(comp.Err)
	}
	want := fmt.Sprintf("trace_id=%016x", uint64(trace))
	waitForStats(t, "the slow request to reach slog.Default()", func() bool {
		out := logged.String()
		return strings.Contains(out, "slow request") && strings.Contains(out, want)
	})

	// A per-task call carries a trace ID of its own too, minted as a
	// stream mints one, so its line is as greppable as the stream's.
	if _, err := cli.PanoContext(ctx, "slow-log", 2, Viewport{FOV: 1.5}); err != nil {
		t.Fatal(err)
	}
	var perTask string
	waitForStats(t, "the per-task request to reach slog.Default()", func() bool {
		for _, line := range strings.Split(logged.String(), "\n") {
			if strings.Contains(line, "slow request") && !strings.Contains(line, want) {
				perTask = line
				return true
			}
		}
		return false
	})
	if strings.Contains(perTask, "trace_id=0000000000000000") {
		t.Errorf("per-task call logged without a trace ID: %s", perTask)
	}
}
