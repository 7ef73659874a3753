package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	coic "github.com/edge-immersion/coic"
	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// The traced run. Nothing inside the program is instrumented yet, so the
// per-layer numbers come from the benchmark's own spans around calls into
// each layer's exported functions, in three parts that all run in the
// process and on the heap the untraced phases left behind (so GC pacing
// matches the load run):
//
//   - probes: one fixed operation per layer metric, the same on every
//     workload, timed in a loop;
//   - the replay: the workload's own requests pushed one at a time through
//     the stage order EdgeServer.dispatch and CloudServer.dispatch use, on
//     the benchmark's own core.Edge and core.Cloud — sockets, goroutine
//     hand-offs and the scheduler are exactly what it leaves out, which
//     is what core.pipeline_residual_us then measures;
//   - a live pass: one more load phase with generator-side spans and a
//     scrape of both servers' /metrics before and after.
//
// End-to-end metrics always come from the untraced phases.

// span is one timed call. Spans of one request share Req (0 for probes);
// Parent is the ID of the span that caused this one (0 for a request's
// root). A Reexecuted span did not run inside its parent: the parent is a
// single exported call, and the span re-runs one of the exported calls it
// makes, right after it, so that the parent's time can be split by layer.
// Either way a span's self time is its duration minus its children's.
type span struct {
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	Req        int    `json:"req"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Reexecuted bool   `json:"reexecuted,omitempty"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
}

func (s *span) nanos() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans  []span // replay
	probes []span
	// later holds re-executions until flush: they must run outside every
	// real span but the request's root, or the real span's duration would
	// count them.
	later []func()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, req, parent int) int {
	layer, _, _ := strings.Cut(name, ".")
	t.spans = append(t.spans, span{Name: name, Layer: layer, Req: req, ID: len(t.spans) + 1, Parent: parent})
	id := len(t.spans)
	t.spans[id-1].Start = nowNanos()
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = nowNanos() }

// timed runs f as a span.
func (t *tracer) timed(name string, req, parent int, f func()) int {
	id := t.begin(name, req, parent)
	f()
	t.end(id)
	return id
}

// reexec queues f to run as a re-executed child of parent.
func (t *tracer) reexec(name string, req, parent int, f func()) {
	t.later = append(t.later, func() {
		id := t.timed(name, req, parent, f)
		t.spans[id-1].Reexecuted = true
	})
}

// flush runs the queued re-executions; the caller has no span open but
// the root.
func (t *tracer) flush() {
	for _, f := range t.later {
		f()
	}
	t.later = t.later[:0]
}

// probe times n calls of f, after one untimed call, as spans, and returns
// their median duration in nanoseconds.
func (t *tracer) probe(name string, n int, f func()) float64 {
	layer, _, _ := strings.Cut(name, ".")
	f()
	durs := make([]float64, n)
	for i := range durs {
		s := span{Name: name, Layer: layer, ID: len(t.probes) + 1, Start: nowNanos()}
		f()
		s.End = nowNanos()
		t.probes = append(t.probes, s)
		durs[i] = s.nanos()
	}
	return median(durs)
}

// layerDef is one per-layer metric. The benchmark driver's result line
// carries only metrics measured on every workload; a stage that a
// workload never enters (the cloud's on a hit workload) is in the report
// document alone, where it prints as null.
type layerDef struct {
	name       string
	unit       string
	better     string
	everywhere bool
}

var perLayer = []layerDef{
	{"wire.read_2m_us", "us", "lower", true},
	{"wire.exec_decode_2m_us", "us", "lower", true},
	{"wire.exec_forward_2m_us", "us", "lower", true},
	{"wire.write_40k_us", "us", "lower", true},
	{"wire.small_rt_us", "us", "lower", true},
	{"wire.alloc_bytes_2m", "B", "lower", true},
	{"feature.key_us", "us", "lower", true},
	{"feature.nearest_us", "us", "lower", true},
	{"cache.lookup_exact_us", "us", "lower", true},
	{"cache.lookup_similar_us", "us", "lower", true},
	{"cache.insert_us", "us", "lower", true},
	{"cache.evictions_per_kreq", "count", "lower", true},
	{"cache.hit_ratio", "ratio", "higher", true},
	{"core.edge_lookup_us", "us", "lower", true},
	{"core.edge_insert_us", "us", "lower", true},
	{"core.cloud_recognize_ms", "ms", "lower", true},
	{"core.cloud_pano_ms", "ms", "lower", true},
	{"core.stage_decode_us", "us", "lower", true},
	{"core.stage_cache_lookup_us", "us", "lower", false},
	{"core.stage_sched_wait_us", "us", "lower", true},
	{"core.stage_exec_us", "us", "lower", true},
	{"core.stage_cloud_fetch_ms", "ms", "lower", false},
	{"core.stage_reply_write_us", "us", "lower", true},
	{"core.cloud_stage_sched_wait_us", "us", "lower", false},
	{"core.cloud_stage_exec_ms", "ms", "lower", false},
	{"core.pipeline_residual_us", "us", "lower", true},
	{"core.goroutines_per_conn", "count", "lower", true},
	{"core.overloads", "count", "lower", true},
	{"core.deadline_sheds", "count", "lower", true},
	{"dnn.forward_ms", "ms", "lower", true},
	{"dnn.mflop_per_forward", "MFLOP", "lower", true},
	{"vision.to_tensor_us", "us", "lower", true},
	{"pano.synthesize_ms", "ms", "lower", true},
	{"pano.rle_encode_ms", "ms", "lower", true},
	{"client.capture_ms", "ms", "lower", true},
	{"client.extract_ms", "ms", "lower", true},
	{"gen.solo_p50_ms", "ms", "lower", true},
	{"gen.solo_p95_ms", "ms", "lower", true},
	{"gen.write_us", "us", "lower", true},
	{"gen.read_us", "us", "lower", true},
	{"runtime.cpu_ms_per_req", "ms", "lower", true},
	{"runtime.alloc_kb_per_req", "KB", "lower", true},
	{"runtime.mallocs_per_req", "count", "lower", true},
	{"runtime.gc_cycles_per_kreq", "count", "lower", true},
	{"runtime.peak_rss_mb", "MB", "lower", true},
	{"trace.overhead_pct", "%", "lower", true},
}

// traced adds the probes, the replay and the live pass to rep and writes
// the span file.
func traced(r *rig, cfg config, rep *report) error {
	t := &tracer{}
	if err := runProbes(t, r.params, rep.PerLayer); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	if err := replay(t, r, cfg, rep); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	live, err := livePass(r, cfg, rep)
	if err != nil {
		return fmt.Errorf("live pass: %w", err)
	}
	for _, d := range perLayer {
		if _, ok := rep.PerLayer[d.name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	rep.SpanFile = filepath.Join(cfg.outDir, "trace-"+r.w.name+".json")
	doc, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Replay   []span `json:"replay"`
		Probes   []span `json:"probes"`
		Live     []span `json:"live"`
	}{r.w.name, cfg.seed, t.spans, t.probes, live})
	if err != nil {
		return err
	}
	return os.WriteFile(rep.SpanFile, doc, 0o644)
}

// runProbes measures one fixed operation per layer metric. The fixtures —
// a camera frame, its exec frame, a panorama, a churn-shaped cache — are
// the probes' own, so a metric means the same on every workload.
func runProbes(t *tracer, p core.Params, out map[string]metric) error {
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	us := func(name string, n int, f func()) {
		out[name+"_us"] = metric{num(t.probe(name, n, f) / 1e3), "us", n}
	}
	ms := func(name string, n int, f func()) {
		out[name+"_ms"] = metric{num(t.probe(name, n, f) / 1e6), "ms", n}
	}
	dev := core.NewClient(0, p)
	cloud := core.NewCloud(p)

	// The device side, which the generator keeps out of the measured path.
	var frame *vision.Frame
	ms("client.capture", 3, func() { frame = dev.CaptureFrame(vision.ClassCar, 7) })
	var desc feature.Descriptor
	ms("client.extract", 3, func() { desc, _ = dev.Extract(frame) })

	// One 2 MB exec frame through the codec: edge ingest, decode, and the
	// upstream re-frame of a forwarded miss.
	body, e := (wire.ExecRequest{Task: wire.TaskRecognize, Desc: desc, Payload: frame.Bytes()}).Marshal()
	fail(e)
	encoded, e := (wire.Message{Type: wire.MsgExec, RequestID: 1, Body: body}).Encode()
	fail(e)
	var msg wire.Message
	us("wire.read_2m", 20, func() { msg, e = wire.ReadMessage(bytes.NewReader(encoded)); fail(e) })
	us("wire.exec_decode_2m", 20, func() { _, e = wire.UnmarshalExecRequest(msg.Body); fail(e) })
	us("wire.exec_forward_2m", 20, func() { fail(wire.WriteMessage(io.Discard, msg)) })
	const allocRuns = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		m, e := wire.ReadMessage(bytes.NewReader(encoded))
		fail(e)
		_, e = wire.UnmarshalExecRequest(m.Body)
		fail(e)
	}
	runtime.ReadMemStats(&after)
	out["wire.alloc_bytes_2m"] = metric{Value: num((after.TotalAlloc - before.TotalAlloc) / allocRuns), Unit: "B"}

	// The cloud's recognition and its parts.
	input := vision.ToTensor(frame, p.DNNInput)
	us("vision.to_tensor", 10, func() {
		f, e := vision.FromBytes(p.CameraW, p.CameraH, frame.Bytes())
		fail(e)
		input = vision.ToTensor(f, p.DNNInput)
	})
	ms("dnn.forward", 5, func() { cloud.Net.Features(input) })
	out["dnn.mflop_per_forward"] = metric{Value: num(float64(cloud.Net.TotalFLOPs()) / 1e6), Unit: "MFLOP"}
	var result []byte
	ms("core.cloud_recognize", 5, func() { result, _, e = cloud.Recognize(frame.Bytes()); fail(e) })

	// A panorama: synthesis and encoding (set-up cost), then the 41 KB
	// reply write and the smallest request's round through the codec.
	var pan *pano.Panorama
	ms("pano.synthesize", 5, func() { pan = pano.Synthesize("probe", 0, p.PanoWidth) })
	var rle []byte
	ms("pano.rle_encode", 5, func() { rle = pano.EncodeRLE(pan.Frame) })
	ms("core.cloud_pano", 5, func() { _, _, e = cloud.FetchPano("probe", 0); fail(e) })
	us("wire.write_40k", 200, func() {
		b, e := (wire.PanoReply{Source: wire.SourceEdge, Data: rle}).Marshal()
		fail(e)
		fail(wire.WriteMessage(io.Discard, wire.Message{Type: wire.MsgPanoReply, RequestID: 1, Body: b}))
	})
	us("wire.small_rt", 1000, func() {
		b, e := (wire.PanoFetch{VideoID: "probe", FrameIndex: 3}).Marshal()
		fail(e)
		enc, e := (wire.Message{Type: wire.MsgPanoFetch, RequestID: 1, Body: b}).Encode()
		fail(e)
		m, e := wire.ReadMessage(bytes.NewReader(enc))
		fail(e)
		_, e = wire.UnmarshalPanoFetch(m.Body)
		fail(e)
	})

	// Descriptor and index at the churn working set: 256 resident 64-d
	// vectors.
	rng := rand.New(rand.NewSource(1))
	const resident = 256
	vecs := make([]feature.Descriptor, resident)
	index := feature.NewLinear()
	for i := range vecs {
		vecs[i] = feature.NewVector(gaussian(rng, churnDim, 1))
		index.Add(uint64(i+1), vecs[i].Vec)
	}
	near := func(d feature.Descriptor) feature.Descriptor {
		v := gaussian(rng, churnDim, churnNoise)
		for i := range v {
			v[i] += d.Vec[i]
		}
		return feature.NewVector(v)
	}
	us("feature.key", 1000, func() { vecs[0].Key() })
	query := near(vecs[17])
	us("feature.nearest", 200, func() { index.Nearest(query.Vec) })

	// The cache and the edge around it: an exact hit on a 41 KB value,
	// then a churn-sized edge filled past capacity for the similar hit and
	// the evicting insert. core.edge_* minus cache.* is core's own share.
	ctx := context.Background()
	roomy := p
	roomy.EdgeCacheBytes = core.DefaultParams().EdgeCacheBytes
	big := core.NewEdge(roomy)
	panoKey := core.PanoDescriptor("probe", 0)
	fail(big.Cache.InsertAs(core.DefaultTenant, panoKey, rle, 1))
	us("cache.lookup_exact", 500, func() {
		if _, res := big.Cache.LookupAs(core.DefaultTenant, panoKey); !res.Hit() {
			fail(fmt.Errorf("exact lookup missed"))
		}
	})
	small := p
	small.EdgeCacheBytes = churnCacheBytes
	edge := core.NewEdge(small)
	for _, d := range vecs {
		fail(edge.Cache.InsertAs(core.DefaultTenant, d, result, 1))
	}
	query = near(vecs[resident-1]) // the most recent insert is resident whatever the capacity
	us("cache.lookup_similar", 200, func() {
		if _, res := edge.Cache.LookupAs(core.DefaultTenant, query); !res.Hit() {
			fail(fmt.Errorf("similar lookup missed"))
		}
	})
	us("core.edge_lookup", 200, func() { edge.LookupTenant(ctx, core.DefaultTenant, wire.TaskRecognize, query) })
	fresh := func() feature.Descriptor { return feature.NewVector(gaussian(rng, churnDim, 1)) }
	us("cache.insert", 200, func() { fail(edge.Cache.InsertAs(core.DefaultTenant, fresh(), result, 1)) })
	us("core.edge_insert", 200, func() { edge.InsertTenant(core.DefaultTenant, fresh(), result, 1) })
	if st := edge.Cache.StatsSnapshot().Store; st.Evictions == 0 {
		fail(fmt.Errorf("insert probes never evicted: %d entries, %d bytes", st.Entries, st.BytesUsed))
	}
	return err
}

// layerShare is one row of the report's share-of-solo-latency table:
// how much of one request's mean solo latency the replay attributes to a
// layer's own code (self time, children excluded).
type layerShare struct {
	Layer  string `json:"layer"`
	MeanUs num    `json:"mean_us_per_request"`
	Share  num    `json:"share_of_solo_mean"`
}

const (
	replayRequests = 200
	// replayShare of the measured time stops the replay early, though not
	// before replayAtLeast requests, on the workloads whose requests cost
	// tens of milliseconds (re-executing the DNN doubles them).
	replayShare   = 0.1
	replayAtLeast = 16
)

// replayer pushes requests through the edge and cloud stage order on the
// benchmark's own nodes, single-goroutine.
type replayer struct {
	t     *tracer
	w     *workload
	st    *stream
	p     core.Params
	edge  *core.Edge
	cloud *core.Cloud
	up    bytes.Buffer // the edge→cloud link
	down  bytes.Buffer // and back
	// forward is the re-executed DNN pass, on a blank frame: any frame
	// costs the same FLOPs.
	forward func()
}

// replay warms its own edge with the workload's stream, replays the next
// requests as spans, and fills rep's replay-derived metrics.
func replay(t *tracer, r *rig, cfg config, rep *report) error {
	rp := &replayer{t: t, w: r.w, st: r.st, p: r.params, edge: core.NewEdge(r.params), cloud: core.NewCloud(r.params)}
	blank := vision.ToTensor(vision.NewFrame(r.params.DNNInput, r.params.DNNInput), r.params.DNNInput)
	rp.forward = func() { rp.cloud.Net.Features(blank) }
	ctx := context.Background()
	cursor := streams - 1 // the stream cursor no connection follows
	if r.w.mode == wire.HelloModeCoIC {
		// Warm-up misses take their result from the reference, not from a
		// 27 ms DNN pass: nothing here is measured.
		for i := 0; i < r.st.warm; i++ {
			rq := r.st.at(cursor, i)
			if !rp.edge.LookupTenant(ctx, core.DefaultTenant, r.st.task, rq.desc).Hit() {
				rp.edge.InsertTenant(core.DefaultTenant, rq.desc, r.st.results[rq.want], 1)
			}
		}
	}
	before := rp.edge.Cache.StatsSnapshot()
	var frame []byte
	budget := time.Duration(cfg.seconds * replayShare * float64(time.Second))
	started := time.Now()
	done := 0
	for done < replayRequests && (done < replayAtLeast || time.Since(started) < budget) {
		rq := r.st.at(cursor, r.st.warm+done)
		frame = append(append(frame[:0], rq.head...), rq.payload...)
		done++
		if err := rp.request(done, frame, rq); err != nil {
			return fmt.Errorf("request %d: %w", done, err)
		}
	}
	after := rp.edge.Cache.StatsSnapshot()

	// Origin mode bypasses the cache: no queries, no hits, ratio 0.
	ratio := 0.0
	if queries := float64(after.Queries - before.Queries); queries > 0 {
		ratio = float64(after.ExactHits+after.SimilarHits-before.ExactHits-before.SimilarHits) / queries
	}
	rep.PerLayer["cache.hit_ratio"] = metric{Value: num(ratio), Unit: "ratio", N: done}
	rep.PerLayer["cache.evictions_per_kreq"] = metric{
		Value: num(float64(after.Store.Evictions-before.Store.Evictions) * 1000 / float64(done)), Unit: "count", N: done}
	attribute(t.spans, done, rep)
	return nil
}

// attribute splits the mean solo latency over the layers by the replay's
// self times — a span's duration minus its children's, nested or
// re-executed — and calls what is left the residual: what the replay
// cannot see.
func attribute(spans []span, requests int, rep *report) {
	children := map[int]float64{} // span ID -> Σ children's durations
	for i := range spans {
		children[spans[i].Parent] += spans[i].nanos()
	}
	self := map[string]float64{}
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 { // a root's own time is the benchmark's glue
			self[s.Layer] += s.nanos() - children[s.ID]
		}
	}
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	residual := rep.soloMeanNanos
	for _, layer := range layers {
		mean := self[layer] / float64(requests)
		residual -= mean
		rep.LayerShare = append(rep.LayerShare, layerShare{layer, num(mean / 1e3), num(mean / rep.soloMeanNanos)})
	}
	rep.LayerShare = append(rep.LayerShare, layerShare{"residual", num(residual / 1e3), num(residual / rep.soloMeanNanos)})
	// Unclamped: a serial replay allocates each 2 MB buffer cold, so it
	// can exceed the live latency, and a negative residual is a finding.
	rep.PerLayer["core.pipeline_residual_us"] = metric{Value: num(residual / 1e3), Unit: "us", N: requests}
}

// request replays one request: edge ingest, dispatch, reply write.
func (rp *replayer) request(k int, frame []byte, rq *request) error {
	t := rp.t
	var err error
	var msg wire.Message
	root := t.begin("request", k, 0)
	defer t.end(root)
	size := "_small"
	if rq.payload != nil {
		size = "_2m"
	}
	t.timed("wire.read"+size, k, root, func() { msg, err = wire.ReadMessage(bytes.NewReader(frame)) })
	if err != nil {
		return err
	}
	var reply wire.Message
	switch msg.Type {
	case wire.MsgExec:
		reply, err = rp.exec(k, root, msg)
	case wire.MsgPanoFetch:
		reply, err = rp.pano(k, root, msg)
	}
	if err != nil {
		return err
	}
	if why := rp.st.check(reply.Type, reply.Body, rq.want); why != "" {
		return fmt.Errorf("%s", why)
	}
	return nil
}

// exec follows EdgeServer.dispatch for MsgExec.
func (rp *replayer) exec(k, root int, msg wire.Message) (wire.Message, error) {
	t := rp.t
	ctx := context.Background()
	var err error
	var req wire.ExecRequest
	t.timed("wire.exec_decode_2m", k, root, func() { req, err = wire.UnmarshalExecRequest(msg.Body) })
	if err != nil {
		return wire.Message{}, err
	}
	if rp.w.mode == wire.HelloModeOrigin {
		reply, err := rp.upstream(k, root, msg)
		t.flush()
		if err != nil {
			return wire.Message{}, err
		}
		reply.RequestID = msg.RequestID
		t.timed("wire.write_small", k, root, func() { err = wire.WriteMessage(io.Discard, reply) })
		return reply, err
	}
	var lr core.LookupResult
	lookup := t.timed("core.edge_lookup", k, root, func() { lr = rp.edge.LookupTenant(ctx, core.DefaultTenant, req.Task, req.Desc) })
	t.reexec("cache.lookup", k, lookup, func() { rp.edge.Cache.LookupAs(core.DefaultTenant, req.Desc) })
	t.flush()
	result, source := lr.Value, wire.SourceEdge
	if !lr.Hit() {
		// fetchCoalesced: the miss resolves through the in-flight table,
		// whose leader fetches upstream and inserts.
		flight := t.begin("cache.inflight", k, root)
		result, _, err = rp.edge.Inflight().Do(ctx, req.Desc, func(context.Context) ([]byte, error) {
			reply, err := rp.upstream(k, flight, msg)
			if err != nil {
				return nil, err
			}
			er, err := wire.UnmarshalExecReply(reply.Body)
			if err != nil {
				return nil, err
			}
			t.timed("core.edge_insert", k, flight, func() { rp.edge.InsertTenant(core.DefaultTenant, req.Desc, er.Result, 1) })
			return er.Result, nil
		})
		t.end(flight)
		t.flush()
		if err != nil {
			return wire.Message{}, err
		}
		source = wire.SourceCloud
	}
	var reply wire.Message
	t.timed("wire.write_small", k, root, func() {
		var body []byte
		if body, err = (wire.ExecReply{Source: source, Result: result}).Marshal(); err == nil {
			reply = wire.Message{Type: wire.MsgExecReply, RequestID: msg.RequestID, Body: body}
			err = wire.WriteMessage(io.Discard, reply)
		}
	})
	return reply, err
}

// upstream is one exec round trip to the cloud without the sockets: the
// edge re-frames the request, the cloud reads, decodes, recognises and
// replies, the edge reads the reply.
func (rp *replayer) upstream(k, parent int, msg wire.Message) (wire.Message, error) {
	t := rp.t
	var err error
	rp.up.Reset()
	t.timed("wire.exec_forward_2m", k, parent, func() { err = wire.WriteMessage(&rp.up, msg) })
	if err != nil {
		return wire.Message{}, err
	}
	var got wire.Message
	t.timed("wire.read_2m", k, parent, func() { got, err = wire.ReadMessage(&rp.up) })
	if err != nil {
		return wire.Message{}, err
	}
	var req wire.ExecRequest
	t.timed("wire.exec_decode_2m", k, parent, func() { req, err = wire.UnmarshalExecRequest(got.Body) })
	if err != nil {
		return wire.Message{}, err
	}
	var result []byte
	recognize := t.timed("core.cloud_recognize", k, parent, func() { result, _, err = rp.cloud.Recognize(req.Payload) })
	if err != nil {
		return wire.Message{}, err
	}
	t.reexec("vision.to_tensor", k, recognize, func() {
		if f, err := vision.FromBytes(rp.p.CameraW, rp.p.CameraH, req.Payload); err == nil {
			vision.ToTensor(f, rp.p.DNNInput)
		}
	})
	t.reexec("dnn.forward", k, recognize, rp.forward)
	rp.down.Reset()
	t.timed("wire.write_small", k, parent, func() {
		var body []byte
		if body, err = (wire.ExecReply{Source: wire.SourceCloud, Result: result}).Marshal(); err == nil {
			err = wire.WriteMessage(&rp.down, wire.Message{Type: wire.MsgExecReply, RequestID: got.RequestID, Body: body})
		}
	})
	if err != nil {
		return wire.Message{}, err
	}
	var reply wire.Message
	t.timed("wire.read_small", k, parent, func() { reply, err = wire.ReadMessage(&rp.down) })
	return reply, err
}

// pano follows EdgeServer.dispatch for MsgPanoFetch on a warm edge.
func (rp *replayer) pano(k, root int, msg wire.Message) (wire.Message, error) {
	t := rp.t
	var err error
	var req wire.PanoFetch
	t.timed("wire.pano_decode", k, root, func() { req, err = wire.UnmarshalPanoFetch(msg.Body) })
	if err != nil {
		return wire.Message{}, err
	}
	var desc feature.Descriptor
	t.timed("core.pano_descriptor", k, root, func() { desc = core.PanoDescriptor(req.VideoID, int(req.FrameIndex)) })
	var lr core.LookupResult
	lookup := t.timed("core.edge_lookup", k, root, func() {
		lr = rp.edge.LookupTenant(context.Background(), core.DefaultTenant, wire.TaskPano, desc)
	})
	t.reexec("cache.lookup", k, lookup, func() { rp.edge.Cache.LookupAs(core.DefaultTenant, desc) })
	t.flush()
	if !lr.Hit() {
		return wire.Message{}, fmt.Errorf("frame %d missed a warm edge", req.FrameIndex)
	}
	var reply wire.Message
	t.timed("wire.write_40k", k, root, func() {
		var body []byte
		if body, err = (wire.PanoReply{Source: wire.SourceEdge, Data: lr.Value}).Marshal(); err == nil {
			reply = wire.Message{Type: wire.MsgPanoReply, RequestID: msg.RequestID, Body: body}
			err = wire.WriteMessage(io.Discard, reply)
		}
	})
	return reply, err
}

// stageSample is one coic_stage_duration_seconds series at one scrape.
type stageSample struct {
	sum   float64 // seconds
	count float64
}

// scrape reads the stage histograms off a server's /metrics.
func scrape(s *coic.Server) (map[string]stageSample, error) {
	rec := httptest.NewRecorder()
	s.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	out := map[string]stageSample{}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		series, value, ok := strings.Cut(sc.Text(), " ")
		rest, found := strings.CutPrefix(series, "coic_stage_duration_seconds_")
		if !ok || !found {
			continue
		}
		kind, labels, _ := strings.Cut(rest, "{")
		stage, _, _ := strings.Cut(strings.TrimPrefix(labels, `stage="`), `"`)
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", sc.Text(), err)
		}
		smp := out[stage]
		switch kind {
		case "sum":
			smp.sum = v
		case "count":
			smp.count = v
		}
		out[stage] = smp
	}
	return out, sc.Err()
}

// stageMean is a stage's mean duration in nanoseconds between two
// scrapes, NaN when the stage was never entered.
func stageMean(before, after map[string]stageSample, stage string) float64 {
	dc := after[stage].count - before[stage].count
	if dc <= 0 {
		return math.NaN()
	}
	return (after[stage].sum - before[stage].sum) / dc * 1e9
}

// settle waits until the goroutine count has stopped falling — closed
// connections' pipelines exit on their own time — and returns it.
func settle() int {
	last, steady := runtime.NumGoroutine(), 0
	for i := 0; i < 400 && steady < 10; i++ {
		time.Sleep(5 * time.Millisecond)
		if g := runtime.NumGoroutine(); g == last {
			steady++
		} else {
			last, steady = g, 0
		}
	}
	return last
}

// liveSpanRequests bounds the generator spans written to the span file,
// per connection; all of them are recorded, so the cost of tracing is
// uniform over the pass.
const liveSpanRequests = 1000

// livePass runs one more load phase, a sixth of the measured time, on
// fresh connections that record generator spans, with a scrape of both
// servers around it.
func livePass(r *rig, cfg config, rep *report) ([]span, error) {
	old := r.conns
	r.conns = nil
	for _, c := range old {
		c.close()
	}
	idle := settle()
	for i := range old {
		c, err := dial(r.addr, r.w.mode, r.st, i)
		if err != nil {
			return nil, err
		}
		c.cursor = old[i].cursor // carry on where the untraced phases stopped
		c.trace = true
		r.conns = append(r.conns, c)
	}
	edgeBefore, err := scrape(r.edge)
	if err != nil {
		return nil, err
	}
	cloudBefore, err := scrape(r.cloud)
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds / 6 * float64(time.Second))
	var busy atomic.Int64
	sampler := time.AfterFunc(d/2, func() { busy.Store(int64(runtime.NumGoroutine())) })
	defer sampler.Stop()
	l := pool(load(r.conns, d))
	edgeAfter, err := scrape(r.edge)
	if err != nil {
		return nil, err
	}
	cloudAfter, err := scrape(r.cloud)
	if err != nil {
		return nil, err
	}
	rep.Phases = append(rep.Phases, l.stats("traced-load", rounds, loadConns, loadWindow))
	rep.attempted += l.attempted
	rep.failed += l.failed

	out := rep.PerLayer
	for _, s := range []struct {
		metric, stage string
		div           float64
		unit          string
	}{
		{"core.stage_decode_us", core.StageDecode, 1e3, "us"},
		{"core.stage_cache_lookup_us", core.StageCacheLookup, 1e3, "us"},
		{"core.stage_sched_wait_us", core.StageSchedWait, 1e3, "us"},
		{"core.stage_exec_us", core.StageExec, 1e3, "us"},
		{"core.stage_cloud_fetch_ms", core.StageCloudFetch, 1e6, "ms"},
		{"core.stage_reply_write_us", core.StageReplyWrite, 1e3, "us"},
	} {
		out[s.metric] = metric{num(stageMean(edgeBefore, edgeAfter, s.stage) / s.div), s.unit,
			int(edgeAfter[s.stage].count - edgeBefore[s.stage].count)}
	}
	out["core.cloud_stage_sched_wait_us"] = metric{num(stageMean(cloudBefore, cloudAfter, core.StageSchedWait) / 1e3), "us",
		int(cloudAfter[core.StageSchedWait].count - cloudBefore[core.StageSchedWait].count)}
	out["core.cloud_stage_exec_ms"] = metric{num(stageMean(cloudBefore, cloudAfter, core.StageExec) / 1e6), "ms",
		int(cloudAfter[core.StageExec].count - cloudBefore[core.StageExec].count)}
	// Under load minus idle, less the sampler's own goroutine and the
	// generator's two per connection (sender and reader): what the server
	// spends on a connection.
	out["core.goroutines_per_conn"] = metric{
		Value: num(float64(busy.Load()-1-int64(idle))/loadConns - 2), Unit: "count"}
	untraced := float64(rep.EndToEnd["load_rps"].Value)
	out["trace.overhead_pct"] = metric{
		Value: num((untraced - float64(l.succeeded)/l.seconds) / untraced * 100), Unit: "%"}

	live, writes, reads := genSpans(r.conns)
	out["gen.write_us"] = metric{num(median(writes) / 1e3), "us", len(writes)}
	out["gen.read_us"] = metric{num(median(reads) / 1e3), "us", len(reads)}
	return live, nil
}

// genSpans turns the connections' recordings into spans — a request's
// write, its wait (write done to reply header in) and its read (header in
// to body in), joined by request ID, for the first liveSpanRequests
// requests of each connection — and returns every write's and read's
// duration beside them.
func genSpans(conns []*conn) (live []span, writes, reads []float64) {
	for ci, c := range conns {
		first := map[uint64]genSpan{} // request ID -> its write, for the requests that get spans
		for i, w := range c.wspans {
			writes = append(writes, float64(w.end-w.start))
			if i < liveSpanRequests {
				first[w.req] = w
			}
		}
		for _, rd := range c.rspans {
			reads = append(reads, float64(rd.end-rd.start))
			w, ok := first[rd.req]
			if !ok {
				continue
			}
			req := int(rd.req)*len(conns) + ci // unique across connections
			for _, s := range []span{
				{Name: "gen.write", Start: w.start, End: w.end},
				{Name: "gen.wait", Start: w.end, End: rd.start},
				{Name: "gen.read", Start: rd.start, End: rd.end},
			} {
				s.Layer, s.Req, s.ID = "gen", req, len(live)+1
				live = append(live, s)
			}
		}
	}
	return live, writes, reads
}
