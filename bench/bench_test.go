package main

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/wire"
)

// smallParams shrinks frames and networks so that a whole run of every
// workload, traced, fits in a unit test.
func smallParams() core.Params {
	p := core.DefaultParams()
	p.CameraW, p.CameraH = 64, 64
	p.DNNInput = 8
	p.PanoWidth = 128
	return p
}

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if got := geomean([]int64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	if got := geomean(nil); !math.IsNaN(got) {
		t.Errorf("geomean of no samples = %v, want NaN", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestCRCShift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 270, 4096, 100_003} {
		a, b := make([]byte, 1+rng.Intn(500)), make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		shift := newCRCShift(n)
		got := shift.combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b))
		if want := crc32.ChecksumIEEE(append(a, b...)); got != want {
			t.Errorf("combine over %d bytes = %08x, want %08x", n, got, want)
		}
	}
}

// The churn workload assembles a frame at send time from a per-request
// head and a shared payload, with a CRC computed by combination: the
// bytes must be a frame the real codec accepts, carrying the request's
// descriptor and payload.
func TestChurnFrameAssembles(t *testing.T) {
	p := smallParams()
	st, err := buildRecognizeChurn(p, 1, core.NewCloud(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.reqs) != churnRequests {
		t.Fatalf("%d requests, want %d", len(st.reqs), churnRequests)
	}
	for _, i := range []int{0, 1, 4095, churnRequests - 1} {
		rq := &st.reqs[i]
		msg, err := wire.ReadMessage(bytes.NewReader(append(append([]byte(nil), rq.head...), rq.payload...)))
		if err != nil {
			t.Fatalf("request %d: the codec rejects the assembled frame: %v", i, err)
		}
		req, err := wire.UnmarshalExecRequest(msg.Body)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if msg.Type != wire.MsgExec || req.Task != wire.TaskRecognize || req.Desc.Key() != rq.desc.Key() || !bytes.Equal(req.Payload, rq.payload) {
			t.Errorf("request %d decodes to something else than was built", i)
		}
	}
}

// Every cursor plays every request of a list, each in its own order.
func TestCursorsCoverTheStream(t *testing.T) {
	for _, n := range []int{cameraFrames, panoFrames, churnRequests} {
		st := &stream{reqs: make([]request, n)}
		for c := 0; c < streams; c++ {
			seen := map[*request]bool{}
			for i := 0; i < n; i++ {
				seen[st.at(c, i)] = true
			}
			if len(seen) != n {
				t.Errorf("cursor %d visits %d of %d requests", c, len(seen), n)
			}
		}
	}
}

// A request whose reply does not come fails after the request timeout,
// counted from its own send and not from the end of the phase, and takes
// the rest of the window with it.
func TestRequestTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // a server that says hello and then only listens
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := wire.ReadMessage(nc); err == nil {
			_ = wire.WriteMessage(nc, wire.Message{Type: wire.MsgHello}) // the client notices a failed hello
		}
		_, _ = io.Copy(io.Discard, nc)
	}()
	body, err := (wire.PanoFetch{VideoID: "v"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	head := append(frameHeader(wire.MsgPanoFetch, len(body), crc32.ChecksumIEEE(body)), body...)
	st := &stream{replyType: wire.MsgPanoReply, reqs: []request{{head: head}}}
	c, err := dial(ln.Addr().String(), wire.HelloModeCoIC, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.timeout = 50 * time.Millisecond
	start := time.Now()
	p := c.run(2, time.Minute, 0)
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("the phase ended after %v, not after the request timeout", took)
	}
	if p.attempted != 2 || p.failed != 2 || p.why["timeout"] != 2 {
		t.Errorf("attempted %d, failed %d, reasons %v; want 2 timeouts", p.attempted, p.failed, p.why)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every workload, run short and traced at reduced parameters, reports
// every named metric, fails nothing and fetches from the cloud as often
// as its design says.
func TestWorkloads(t *testing.T) {
	p := smallParams()
	fetch := map[string][2]float64{
		"recognize_hit":    {0, 0},
		"pano_hit":         {0, 0},
		"recognize_origin": {1, 1},
		"recognize_churn":  {0.1, 0.3},
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing asserted below is a timing
			rep, err := runWorkload(w, config{seed: 1, seconds: 0.3, trace: true, outDir: t.TempDir(), params: &p})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("%d of %d requests failed: %+v", rep.failed, rep.attempted, rep.Phases)
			}
			for _, d := range endToEnd {
				m, ok := rep.EndToEnd[d.name]
				if v := float64(m.Value); !ok || math.IsNaN(v) || math.IsInf(v, 0) || m.Unit != d.unit || !metricName.MatchString(d.name) {
					t.Errorf("end-to-end metric %s: %+v (reported %v)", d.name, m, ok)
				}
			}
			for _, d := range perLayer {
				m, ok := rep.PerLayer[d.name]
				if v := float64(m.Value); !ok || (d.everywhere && math.IsNaN(v)) || math.IsInf(v, 0) || m.Unit != d.unit || !metricName.MatchString(d.name) {
					t.Errorf("per-layer metric %s: %+v (reported %v)", d.name, m, ok)
				}
			}
			if len(rep.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, %d defined", len(rep.PerLayer), len(perLayer))
			}
			if v := rep.EndToEnd["fail_ratio"].Value; v != 0 {
				t.Errorf("fail_ratio = %v, want 0", v)
			}
			want := fetch[w.name]
			v := float64(rep.EndToEnd["cloud_fetch_ratio"].Value)
			t.Logf("%d requests, cloud_fetch_ratio %.3f", rep.attempted, v)
			if v < want[0] || v > want[1] {
				t.Errorf("cloud_fetch_ratio = %v, want within %v", v, want)
			}
			if _, err := os.Stat(rep.SpanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
			// The result lines carry exactly the metrics BENCHMARK.json lists.
			for _, traced := range []bool{false, true} {
				res := rep.result(traced)
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("result line: %v", err)
				}
				for name, m := range res.Metrics {
					if math.IsNaN(float64(m.Value)) {
						t.Errorf("result line (trace %v): %s has no value", traced, name)
					}
				}
			}
		})
	}
}

// BENCHMARK.json is the contract later changes are judged by; it must
// name the workloads and metrics this package reports, with their units,
// directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
	}
	type def struct {
		unit, better string
		bound        float64
	}
	gated, layers := map[string]def{}, map[string]def{}
	for _, d := range endToEnd {
		if d.absolute {
			layers[d.name] = def{d.unit, d.better, 0}
		} else {
			gated[d.name] = def{d.unit, d.better, d.bound}
		}
	}
	for _, d := range perLayer {
		if d.everywhere {
			layers[d.name] = def{d.unit, d.better, 0}
		}
	}
	for _, m := range spec.EndToEnd {
		if want, ok := gated[m.Name]; !ok || want != (def{m.Unit, m.Better, m.Bound}) {
			t.Errorf("end_to_end %+v, the benchmark has %+v (defined %v)", m, want, ok)
		}
		delete(gated, m.Name)
	}
	for _, m := range spec.PerLayer {
		if want, ok := layers[m.Name]; !ok || want != (def{m.Unit, m.Better, 0}) {
			t.Errorf("per_layer %+v, the benchmark has %+v (defined %v)", m, want, ok)
		}
		delete(layers, m.Name)
	}
	for name := range gated {
		t.Errorf("end_to_end lacks %s", name)
	}
	for name := range layers {
		t.Errorf("per_layer lacks %s", name)
	}
}
