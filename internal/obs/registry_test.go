package obs

import (
	"strings"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestRegistryCounterRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("coic_requests_total", "Requests by class and outcome.",
		L("class", "interactive"), L("outcome", "ok"))
	c.Add(3)
	r.Counter("coic_requests_total", "Requests by class and outcome.",
		L("class", "best_effort"), L("outcome", "shed")).Inc()

	out := render(t, r)
	for _, want := range []string{
		"# HELP coic_requests_total Requests by class and outcome.\n",
		"# TYPE coic_requests_total counter\n",
		`coic_requests_total{class="interactive",outcome="ok"} 3` + "\n",
		`coic_requests_total{class="best_effort",outcome="shed"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE must appear exactly once even with two series.
	if n := strings.Count(out, "# TYPE coic_requests_total"); n != 1 {
		t.Errorf("TYPE line count = %d, want 1", n)
	}
}

func TestRegistrySameSeriesReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "", L("b", "2"), L("a", "1")) // label order ignored
	if a != b {
		t.Fatal("same label set should resolve to the same counter")
	}
	c := r.Counter("x_total", "", L("a", "1"), L("b", "3"))
	if a == c {
		t.Fatal("different label set should be a distinct series")
	}
}

func TestRegistryEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "line one\nline \\two", L("path", `a"b\c`+"\nd")).Inc()
	out := render(t, r)
	if !strings.Contains(out, `# HELP esc_total line one\nline \\two`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `esc_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegistryHistogramRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("coic_stage_duration_seconds", "Stage latency.", L("stage", "exec"))
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(20 * time.Second)

	out := render(t, r)
	for _, want := range []string{
		"# TYPE coic_stage_duration_seconds histogram\n",
		`coic_stage_duration_seconds_bucket{stage="exec",le="0.001"} 1` + "\n",
		`coic_stage_duration_seconds_bucket{stage="exec",le="0.01"} 2` + "\n",
		`coic_stage_duration_seconds_bucket{stage="exec",le="10"} 2` + "\n",
		`coic_stage_duration_seconds_bucket{stage="exec",le="+Inf"} 3` + "\n",
		`coic_stage_duration_seconds_sum{stage="exec"} 20.0055` + "\n",
		`coic_stage_duration_seconds_count{stage="exec"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryGaugeAndFuncs(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("coic_connections_active", "Open connections.")
	g.Set(4)
	v := 17.0
	r.GaugeFunc("coic_cache_bytes", "Resident bytes.", func() float64 { return v })
	ext := uint64(9)
	r.CounterFunc("coic_cache_queries_total", "Cache queries.", func() float64 { return float64(ext) })

	out := render(t, r)
	for _, want := range []string{
		"coic_connections_active 4\n",
		"coic_cache_bytes 17\n",
		"coic_cache_queries_total 9\n",
		"# TYPE coic_cache_bytes gauge\n",
		"# TYPE coic_cache_queries_total counter\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRenderPassesLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("coic_requests_total", "Requests.", L("class", "interactive"), L("outcome", "ok")).Inc()
	r.Gauge("coic_connections_active", "Open connections.").Set(2)
	h := r.Histogram("coic_stage_duration_seconds", "Stage latency.", L("stage", "decode"))
	h.Observe(time.Millisecond)

	out := render(t, r)
	if problems := Lint(strings.NewReader(out)); len(problems) != 0 {
		t.Fatalf("self-rendered output fails lint: %v\n%s", problems, out)
	}
}

func TestRegistryInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, fn := range []func(){
		func() { r.Counter("0bad", "") },
		func() { r.Counter("has space", "") },
		func() { r.Counter("ok_total", "", L("__reserved", "x")) },
		func() { r.Gauge("ok_total", "") }, // kind mismatch with next line
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			r.Counter("ok_total", "") // establishes counter kind for the mismatch case
			fn()
		}()
	}
}
