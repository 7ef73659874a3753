package coic

import (
	"errors"
	"testing"
	"time"

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
// the foreground is QoSInteractive with a deadline and jumps the queue.
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
			stopBG, err := h.flood(h.Client, bc.qos, 6)
			if err != nil {
				b.Fatal(err)
			}
			defer stopBG()
			fg, err := h.Client.Stream(h.ctx, WithWindow(1))
			if err != nil {
				b.Fatal(err)
			}

			hist := &metrics.Histogram{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := PanoTask("qos-fg", i, Viewport{FOV: 1.6})
				if bc.qos {
					req = req.WithQoS(QoSInteractive).WithDeadline(250 * time.Millisecond)
				}
				ticket, err := fg.Submit(h.ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				comp, err := ticket.Await(h.ctx)
				if err != nil && !errors.Is(err, ErrDeadlineExceeded) {
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
