package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	coic "github.com/edge-immersion/coic"
	"github.com/edge-immersion/coic/internal/core"
)

// The load model. A run sets the system up once and then alternates
// `rounds` rounds of a solo phase — one connection, one request in flight:
// what one user on a quiet edge sees, the analogue of the paper's
// single-phone bars — and a load phase — loadConns connections ×
// loadWindow in flight: what the edge sustains. At the default length a
// solo phase is 2.7 s and a load phase 6.3 s. Latency samples are pooled
// over rounds, throughput is completed/elapsed over the load phases. No
// more connections than cores: the generator must not out-compete the
// servers it measures.
const (
	// defaultSeconds is BENCHMARK.json's run_seconds, the length every
	// comparison uses: the most that lets the driver's 92 runs, with their
	// set-ups, end a tenth inside its 3420 s.
	defaultSeconds = 27
	rounds         = 3
	soloShare      = 0.3 // of the measured seconds; the rest is load
	loadConns      = 2
	loadWindow     = 4
)

// metricDef fixes an end-to-end metric's name, unit, direction and the
// bound by which it may worsen before a change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	// absolute: the bound is a difference, not a share of the baseline —
	// the two ratios, which are legitimately 0, so that no share of them
	// means anything. -check enforces it; the driver, whose bounds are all
	// shares, sees cloud_fetch_ratio as hops_per_req and fail_ratio as the
	// run's `failed` count, and both among the per-layer metrics.
	absolute bool
}

// endToEnd is what a user of the system would see, the same on every
// workload. The solo median and p95 are not here: they cannot repeat
// within any bound worth having and are reported as gen.solo_p50_ms and
// gen.solo_p95_ms (see README.md, "Metrics that moved to the per-layer
// list").
var endToEnd = []metricDef{
	{name: "solo_geomean_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "load_rps", unit: "req/s", better: "higher", bound: 0.20},
	{name: "load_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "hops_per_req", unit: "count", better: "lower", bound: 0.02},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cloud_fetch_ratio", unit: "ratio", better: "lower", bound: 0.01, absolute: true},
	{name: "fail_ratio", unit: "ratio", better: "lower", bound: 0, absolute: true},
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	// params, when set, replaces DefaultParams: the package test runs at
	// reduced frame and network sizes.
	params *core.Params
}

func (c config) soloPhase() time.Duration {
	return time.Duration(c.seconds * soloShare / rounds * float64(time.Second))
}

func (c config) loadPhase() time.Duration {
	return time.Duration(c.seconds * (1 - soloShare) / rounds * float64(time.Second))
}

func (c config) header() header {
	return header{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: c.seed, Seconds: c.seconds, Rounds: rounds,
		SoloS: c.soloPhase().Seconds(), LoadS: c.loadPhase().Seconds(),
		LoadConns: loadConns, LoadWindow: loadWindow,
		Transport: "loopback TCP, cloud and edge in-process, no shaping",
	}
}

// rig is one booted system with its warm connections.
type rig struct {
	w      *workload
	params core.Params
	st     *stream
	edge   *coic.Server
	cloud  *coic.Server
	addr   string // the edge's
	stop   context.CancelFunc
	served chan error // one result per server
	conns  []*conn
}

// setUp is everything before the phases start: build the inputs, boot
// cloud and edge through the public v2 API, connect and warm up.
func setUp(w *workload, p core.Params, seed uint64) (*rig, error) {
	st, err := w.build(p, seed, core.NewCloud(p))
	if err != nil {
		return nil, fmt.Errorf("build inputs: %w", err)
	}
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cloudLn.Close()
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	r := &rig{
		w: w, params: p, st: st, addr: edgeLn.Addr().String(), stop: stop, served: make(chan error, 2),
		cloud: coic.NewCloudServer(coic.WithListener(cloudLn), coic.WithServeParams(p)),
		edge: coic.NewEdgeServer(coic.WithListener(edgeLn), coic.WithServeParams(p),
			coic.WithCloud(cloudLn.Addr().String())),
	}
	go func() { r.served <- r.cloud.Serve(ctx) }()
	go func() { r.served <- r.edge.Serve(ctx) }()
	for i := 0; i < loadConns; i++ {
		c, err := dial(r.addr, w.mode, st, i)
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	// The first connection alone warms up, so that its pass over the
	// stream covers every distinct request of the small workloads.
	warm := r.conns[0].run(loadWindow, time.Minute, st.warm)
	if warm.failed > 0 {
		r.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.why)
	}
	return r, nil
}

// close disconnects, shuts both servers down gracefully and waits for
// them.
func (r *rig) close() error {
	for _, c := range r.conns {
		c.close()
	}
	r.stop()
	var first error
	for i := 0; i < 2; i++ {
		if err := <-r.served; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// load runs one load phase on every connection at once.
func load(conns []*conn, d time.Duration) []phase {
	out := make([]phase, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = c.run(loadWindow, d, 0)
		}()
	}
	wg.Wait()
	return out
}

// phaseStats is one phase of the report.
type phaseStats struct {
	Phase     string         `json:"phase"`
	Round     int            `json:"round"`
	Conns     int            `json:"connections"`
	Window    int            `json:"window"`
	Seconds   float64        `json:"seconds"`
	Attempted int            `json:"attempted"`
	Succeeded int            `json:"succeeded"`
	Failed    int            `json:"failed"`
	Why       map[string]int `json:"failures,omitempty"`
	RPS       num            `json:"rps"`
	P50Ms     num            `json:"p50_ms"`
	P95Ms     num            `json:"p95_ms"`
	P99Ms     num            `json:"p99_ms"`
}

// tally pools phases that ran side by side.
type tally struct {
	attempted, succeeded, failed int
	lat                          []int64
	why                          map[string]int
	seconds                      float64
}

func pool(ps []phase) tally {
	var t tally
	start, end := int64(math.MaxInt64), int64(0)
	for _, p := range ps {
		t = merge(t, tally{attempted: p.attempted, succeeded: p.succeeded, failed: p.failed, lat: p.lat, why: p.why})
		start, end = min(start, p.start), max(end, p.end)
	}
	t.seconds = float64(end-start) / 1e9
	return t
}

func (t tally) stats(name string, round, conns, window int) phaseStats {
	ps := phaseStats{Phase: name, Round: round, Conns: conns, Window: window,
		Seconds: t.seconds, Attempted: t.attempted, Succeeded: t.succeeded, Failed: t.failed}
	if len(t.why) > 0 {
		ps.Why = t.why
	}
	sort.Slice(t.lat, func(i, j int) bool { return t.lat[i] < t.lat[j] })
	ps.RPS = num(float64(t.succeeded) / t.seconds)
	ps.P50Ms = num(percentile(t.lat, 0.50) / 1e6)
	ps.P95Ms = num(percentile(t.lat, 0.95) / 1e6)
	ps.P99Ms = num(percentile(t.lat, 0.99) / 1e6)
	return ps
}

// report is everything one run of one workload measured.
type report struct {
	Workload string            `json:"workload"`
	Why      string            `json:"why"`
	EndToEnd map[string]metric `json:"end_to_end"`
	Phases   []phaseStats      `json:"phases"`
	PerLayer map[string]metric `json:"per_layer"`
	// The rest is filled by the traced run.
	LayerShare []layerShare `json:"share_of_solo_latency_by_layer,omitempty"`
	SpanFile   string       `json:"span_file,omitempty"`
	Check      *checkResult `json:"check,omitempty"`

	attempted, failed int
	soloMeanNanos     float64
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// result is the driver's view of the report: the end-to-end metrics with
// a relative bound for an untraced run, everything else for a traced one.
func (r *report) result(traced bool) result {
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	put := func(name string, m metric) {
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit} // the driver's metric objects carry no n
	}
	for _, d := range endToEnd {
		if d.absolute == traced {
			put(d.name, r.EndToEnd[d.name])
		}
	}
	for _, d := range perLayer {
		if traced && d.everywhere {
			put(d.name, r.PerLayer[d.name])
		}
	}
	return res
}

// runWorkload sets the workload up, runs its rounds — each a solo phase
// and a load phase — and adds the traced run on the same rig when asked.
func runWorkload(w *workload, cfg config) (*report, error) {
	p := core.DefaultParams()
	if cfg.params != nil {
		p = *cfg.params
	}
	if w.tune != nil {
		w.tune(&p)
	}
	rep := &report{Workload: w.name, Why: w.why, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
	runtime.GC() // a later workload of one invocation sets up on a collected heap, like the first
	start := time.Now()
	r, err := setUp(w, p, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m := measured{setup: time.Since(start)}
	for round := 1; round <= rounds; round++ {
		m.round(r, cfg, round, rep)
	}
	m.summarise(rep)
	if cfg.trace {
		if err := traced(r, cfg, rep); err != nil {
			r.close()
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	if err := r.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	return rep, nil
}

// measured accumulates the rounds of one run.
type measured struct {
	setup      time.Duration
	solo, busy tally
	cost       usage  // of the load phases
	fetches    uint64 // upstream round trips the edge issued in the phases
	overloads  uint64
	sheds      uint64
}

// round runs one solo and one load phase on r.
func (m *measured) round(r *rig, cfg config, round int, rep *report) {
	before := r.edge.Stats()
	s := pool([]phase{r.conns[0].run(1, cfg.soloPhase(), 0)})
	rep.Phases = append(rep.Phases, s.stats("solo", round, 1, 1))
	m.solo = merge(m.solo, s)

	u := readUsage()
	l := pool(load(r.conns, cfg.loadPhase()))
	m.cost = m.cost.add(readUsage().sub(u))
	rep.Phases = append(rep.Phases, l.stats("load", round, loadConns, loadWindow))
	m.busy = merge(m.busy, l)

	after := r.edge.Stats()
	m.fetches += after.CloudFetches - before.CloudFetches
	m.overloads += after.Overloads - before.Overloads
	m.sheds += after.DeadlineSheds - before.DeadlineSheds
}

// summarise turns the pooled rounds into the report's metrics.
func (m *measured) summarise(rep *report) {
	solo, busy := m.solo, m.busy
	rep.attempted = solo.attempted + busy.attempted
	rep.failed = solo.failed + busy.failed
	sort.Slice(solo.lat, func(i, j int) bool { return solo.lat[i] < solo.lat[j] })
	sort.Slice(busy.lat, func(i, j int) bool { return busy.lat[i] < busy.lat[j] })
	var sum float64
	for _, l := range solo.lat {
		sum += float64(l)
	}
	rep.soloMeanNanos = sum / float64(len(solo.lat))

	ms := func(nanos float64) num { return num(nanos / 1e6) }
	e := rep.EndToEnd
	fetched := float64(m.fetches) / float64(rep.attempted)
	e["solo_geomean_ms"] = metric{ms(geomean(solo.lat)), "ms", len(solo.lat)}
	e["load_rps"] = metric{num(float64(busy.succeeded) / busy.seconds), "req/s", busy.succeeded}
	e["load_p99_ms"] = metric{ms(percentile(busy.lat, 0.99)), "ms", len(busy.lat)}
	e["cloud_fetch_ratio"] = metric{Value: num(fetched), Unit: "ratio"}
	// The servers a request visits: 1 at the edge plus the share that went
	// on to the cloud. The same measurement as cloud_fetch_ratio, never 0,
	// so that a share of it is a bound.
	e["hops_per_req"] = metric{Value: num(1 + fetched), Unit: "count"}
	e["fail_ratio"] = metric{Value: num(float64(rep.failed) / float64(rep.attempted)), Unit: "ratio"}
	e["setup_s"] = metric{Value: num(m.setup.Seconds()), Unit: "s"}

	// What a request costs the process under load: with both cores
	// saturated load_rps ≈ cores / cpu per request, and allocation volume
	// drives GC, which drives the load tail.
	done := float64(busy.succeeded)
	l := rep.PerLayer
	l["gen.solo_p50_ms"] = metric{ms(percentile(solo.lat, 0.50)), "ms", len(solo.lat)}
	l["gen.solo_p95_ms"] = metric{ms(percentile(solo.lat, 0.95)), "ms", len(solo.lat)}
	l["runtime.cpu_ms_per_req"] = metric{Value: num(float64(m.cost.cpuNanos) / 1e6 / done), Unit: "ms"}
	l["runtime.alloc_kb_per_req"] = metric{Value: num(float64(m.cost.alloc) / 1024 / done), Unit: "KB"}
	l["runtime.mallocs_per_req"] = metric{Value: num(float64(m.cost.mallocs) / done), Unit: "count"}
	l["runtime.gc_cycles_per_kreq"] = metric{Value: num(float64(m.cost.gcCycles) * 1000 / done), Unit: "count"}
	l["runtime.peak_rss_mb"] = metric{Value: num(peakRSSMB()), Unit: "MB"}
	l["core.overloads"] = metric{Value: num(m.overloads), Unit: "count"}
	l["core.deadline_sheds"] = metric{Value: num(m.sheds), Unit: "count"}
}

// merge adds b, which ran after a, to a.
func merge(a, b tally) tally {
	if a.why == nil {
		a.why = map[string]int{}
	}
	a.attempted += b.attempted
	a.succeeded += b.succeeded
	a.failed += b.failed
	a.lat = append(a.lat, b.lat...)
	a.seconds += b.seconds
	for reason, n := range b.why {
		a.why[reason] += n
	}
	return a
}

// checkResult is what -check found between two back-to-back runs.
type checkResult struct {
	Second   map[string]metric `json:"second_run"`
	Exceeded []string          `json:"exceeded"`
}

// compare reports the end-to-end metrics of two runs of the same code
// that differ by more than the metric's bound.
func compare(first, second *report) *checkResult {
	c := &checkResult{Second: second.EndToEnd, Exceeded: []string{}}
	for _, d := range endToEnd {
		a, b := float64(first.EndToEnd[d.name].Value), float64(second.EndToEnd[d.name].Value)
		diff := math.Abs(b - a)
		if !d.absolute {
			diff /= a
		}
		if !(diff <= d.bound) { // NaN exceeds
			c.Exceeded = append(c.Exceeded, fmt.Sprintf("%s: %.6g vs %.6g", d.name, a, b))
		}
	}
	return c
}
