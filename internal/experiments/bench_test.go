package experiments

import (
	"errors"
	"fmt"
	"testing"
	"time"

	coic "github.com/edge-immersion/coic"
	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/metrics"
)

// BenchmarkStreamServe measures what deadline-aware class scheduling
// buys an interactive stream on a live TCP stack, on exactly the
// RunQoS ablation's harness (qosHarness — shared so the benchmark and
// the table cannot drift apart): a background stream keeps a standing
// window of always-miss pano fetches queued at a one-worker edge behind
// a ~40ms-RTT link, while the foreground issues one request per
// iteration. In the fifo case neither stream carries QoS metadata (the
// pre-QoS edge) and the foreground absorbs the backlog; in the qos case
// the foreground is coic.QoSInteractive with a deadline and jumps the queue.
// Reported p50-ms/p99-ms are foreground completion latencies.
func BenchmarkStreamServe(b *testing.B) {
	for _, bc := range []struct {
		name string
		qos  bool
	}{{"fifo", false}, {"qos-interactive", true}} {
		b.Run(bc.name, func(b *testing.B) {
			h, err := newQoSHarness(testParams())
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			stopBG, err := h.flood(h.client, bc.qos, 6)
			if err != nil {
				b.Fatal(err)
			}
			defer stopBG()
			fg, err := h.client.Stream(h.ctx, coic.WithWindow(1))
			if err != nil {
				b.Fatal(err)
			}

			hist := &metrics.Histogram{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := coic.PanoTask("qos-fg", i, coic.Viewport{FOV: 1.6})
				if bc.qos {
					req = req.WithQoS(coic.QoSInteractive).WithDeadline(250 * time.Millisecond)
				}
				ticket, err := fg.Submit(h.ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				comp, err := ticket.Await(h.ctx)
				if err != nil && !errors.Is(err, coic.ErrDeadlineExceeded) {
					b.Fatal(err)
				}
				hist.Record(comp.Latency)
			}
			b.StopTimer()
			b.ReportMetric(float64(hist.Median())/float64(time.Millisecond), "p50-ms")
			b.ReportMetric(float64(hist.P99())/float64(time.Millisecond), "p99-ms")
		})
	}
}

// BenchmarkIndexLookup compares the edge's descriptor matchers (A-index)
// on real wall-clock time.
func BenchmarkIndexLookup(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, idx := range []string{"linear", "lsh"} {
			b.Run(fmt.Sprintf("%s/%d", idx, n), func(b *testing.B) {
				RunIndexAblation(64, []int{n}, b.N+1, 42)
			})
		}
	}
}

// BenchmarkLayerCache measures the fine-grained per-layer reuse extension
// (A-layer) on real compute.
func BenchmarkLayerCache(b *testing.B) {
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		RunFinegrained(p, []int{4}, 16)
	}
}
