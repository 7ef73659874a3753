package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("coic_requests_total", "Requests.", L("class", "interactive"), L("outcome", "ok")).Add(7)
	rlog := NewRequestLog(8, time.Millisecond, nil)
	rlog.Record(RequestEvent{TraceID: 0xabc, ReqID: 3, Type: "exec", Class: "interactive", Outcome: "deadline", Duration: 40 * time.Millisecond})

	var unready atomic.Bool
	ready := func(ctx context.Context) error {
		if unready.Load() {
			return errors.New("cloud link down")
		}
		return nil
	}
	srv := httptest.NewServer(Handler(reg, ready, rlog))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	unready.Store(true)
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "cloud link down") {
		t.Fatalf("/readyz after drop = %d %q, want 503 with reason", code, body)
	}
	unready.Store(false)
	if code, _ := get("/readyz"); code != 200 {
		t.Fatal("/readyz should recover when the dependency returns")
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, `coic_requests_total{class="interactive",outcome="ok"} 7`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if problems := Lint(strings.NewReader(body)); len(problems) != 0 {
		t.Fatalf("/metrics fails lint: %v", problems)
	}

	code, body = get("/debug/requests")
	if code != 200 {
		t.Fatalf("/debug/requests = %d", code)
	}
	var evs []map[string]any
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/debug/requests not JSON: %v\n%s", err, body)
	}
	if len(evs) != 1 || evs[0]["trace_id"] != "0000000000000abc" || evs[0]["outcome"] != "deadline" {
		t.Fatalf("/debug/requests = %v", evs)
	}

	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestHandlerNoRequestLog(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("/debug/requests without ring = %d, want 404", resp.StatusCode)
	}
	resp, err = srv.Client().Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz with nil ready = %d, want 200", resp.StatusCode)
	}
}

func TestRequestLogRing(t *testing.T) {
	l := NewRequestLog(3, 10*time.Millisecond, nil)
	l.Record(RequestEvent{ReqID: 1, Outcome: "ok", Duration: time.Millisecond}) // fast ok: dropped
	for i := uint64(2); i <= 5; i++ {
		l.Record(RequestEvent{ReqID: i, Outcome: "error"})
	}
	evs := l.Recent()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(evs))
	}
	for i, want := range []uint64{3, 4, 5} {
		if evs[i].ReqID != want {
			t.Fatalf("ring order = %v, want oldest-first 3,4,5", evs)
		}
	}
	l2 := NewRequestLog(4, 0, nil)
	l2.Record(RequestEvent{ReqID: 1, Outcome: "ok", Duration: time.Hour})
	if len(l2.Recent()) != 0 {
		t.Fatal("slow<=0 should keep successes out of the ring")
	}
}

func TestRequestLogSlogEmission(t *testing.T) {
	var buf strings.Builder
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	l := NewRequestLog(4, time.Millisecond, logger)
	l.Record(RequestEvent{TraceID: 0xdead, ReqID: 9, Type: "exec", Class: "interactive", Outcome: "ok", Duration: 50 * time.Millisecond})
	out := buf.String()
	if !strings.Contains(out, "000000000000dead") || !strings.Contains(out, "slow request") {
		t.Fatalf("slog line missing trace: %s", out)
	}
}

// TestRequestLogSkipsAdmissionRefusals: a quota or overloaded refusal is
// neither filed nor logged (coic_requests_total counts it), so a flood
// of them cannot evict slow entries or write a line per refusal; a
// failed request still is both.
func TestRequestLogSkipsAdmissionRefusals(t *testing.T) {
	var buf strings.Builder
	l := NewRequestLog(4, time.Millisecond, slog.New(slog.NewTextHandler(&buf, nil)))
	for i, outcome := range []string{"quota", "overloaded", "quota"} {
		l.Record(RequestEvent{ReqID: uint64(i), Outcome: outcome, Duration: time.Second})
	}
	if evs := l.Recent(); len(evs) != 0 {
		t.Fatalf("refusals filed in the ring: %v", evs)
	}
	if buf.Len() != 0 {
		t.Fatalf("refusals logged: %s", buf.String())
	}
	l.Record(RequestEvent{ReqID: 7, Outcome: "error"})
	if evs := l.Recent(); len(evs) != 1 || evs[0].ReqID != 7 {
		t.Fatalf("ring = %v, want the one error event", evs)
	}
	if out := buf.String(); !strings.Contains(out, "slow request") || !strings.Contains(out, "outcome=error") {
		t.Fatalf("error event not logged: %q", out)
	}
}

// TestRequestLogFilesCancelsOnlyWhenSlow: a client cancel passes the slow
// threshold check a success passes, so a fast one is neither filed nor
// logged and a slow one is both; an error is filed whatever its duration.
func TestRequestLogFilesCancelsOnlyWhenSlow(t *testing.T) {
	var buf strings.Builder
	l := NewRequestLog(4, 10*time.Millisecond, slog.New(slog.NewTextHandler(&buf, nil)))
	l.Record(RequestEvent{ReqID: 1, Outcome: "canceled", Duration: time.Millisecond})
	if evs := l.Recent(); len(evs) != 0 {
		t.Fatalf("fast cancel filed in the ring: %v", evs)
	}
	if buf.Len() != 0 {
		t.Fatalf("fast cancel logged: %s", buf.String())
	}
	l.Record(RequestEvent{ReqID: 2, Outcome: "canceled", Duration: 20 * time.Millisecond})
	if evs := l.Recent(); len(evs) != 1 || evs[0].ReqID != 2 {
		t.Fatalf("ring = %v, want the slow cancel", evs)
	}
	if out := buf.String(); !strings.Contains(out, "outcome=canceled") || !strings.Contains(out, "req_id=2") {
		t.Fatalf("slow cancel not logged: %q", out)
	}
	l.Record(RequestEvent{ReqID: 3, Outcome: "error", Duration: time.Microsecond})
	if evs := l.Recent(); len(evs) != 2 || evs[1].ReqID != 3 {
		t.Fatalf("ring = %v, want the fast error filed after the slow cancel", evs)
	}
	if out := buf.String(); !strings.Contains(out, "outcome=error") {
		t.Fatalf("fast error not logged: %q", out)
	}
}
