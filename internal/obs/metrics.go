package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefLatencyBuckets are the default histogram bounds for request-latency
// observations, in seconds: half a millisecond to ten seconds, roughly
// exponential. Everything above the last bound lands in the implicit +Inf
// bucket.
func DefLatencyBuckets() []float64 {
	return []float64{
		0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Histogram is a fixed-bound bucketed latency histogram: one atomic
// counter per bucket, an atomic sample count and an atomic nanosecond
// sum. Observing is a binary search over the bounds plus three atomic
// adds — no lock, no allocation — so the serving hot path can observe
// every request. Quantiles are bucket-approximated; the exact-sample
// metrics.Histogram remains the tool for offline experiments.
//
// Build one through Registry.Histogram; the zero value is not usable.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, in seconds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets()
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1), // +1 for +Inf
	}
}

// Observe records one duration. Negative durations clamp to zero (clock
// misuse must not corrupt the distribution).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	// First bound >= s; beyond every bound lands in the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, s)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// ObserveValue records one dimensionless sample — e.g. a batch size —
// against the same bounds/count/sum machinery. Bounds are then plain
// values rather than seconds, and the rendered _sum accumulates the
// plain value (stored at nanosecond scale so the exposition path divides
// it back out). Negative samples clamp to zero like Observe.
func (h *Histogram) ObserveValue(v float64) {
	if v < 0 {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v * float64(time.Second)))
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// snapshot returns cumulative bucket counts (le semantics, +Inf last),
// the count and the sum — read without a lock; buckets may trail count by
// in-flight observations, which Prometheus scrape semantics tolerate.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum time.Duration) {
	cum = make([]uint64, len(h.buckets))
	var running uint64
	for i := range h.buckets {
		running += h.buckets[i].Load()
		cum[i] = running
	}
	return cum, h.count.Load(), time.Duration(h.sum.Load())
}
