package metrics

import (
	"math"
	"sort"
	"time"
)

// Histogram records durations and answers quantile queries. It keeps the
// exact samples (experiments here record at most a few hundred thousand
// points), so quantiles are exact rather than bucket-approximated. The
// zero value is ready to use.
//
// Histogram is NOT safe for concurrent use, deliberately: the simulation
// is single-threaded, the TCP client aggregates after joining its
// workers, and keeping the type lock-free keeps offline experiment loops
// honest about their own cost. Callers that must share one instance
// across goroutines serialise every method — including the read-side
// Quantile/Median/P95/P99, which lazily sort the sample slice in place —
// behind their own mutex. Live servers should not use this type on hot
// paths at all; that is what obs.Histogram (atomic bounded buckets,
// quantiles left to the scraper) exists for. TestHistogramConcurrencyContract
// guards this contract.
type Histogram struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
}

// Record adds one sample. Negative durations are clamped to zero: they can
// only arise from clock misuse and must not corrupt quantiles.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.sum += d
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean reports the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.samples))
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1) using nearest-rank on the
// sorted samples. Out-of-range q is clamped. Returns 0 if empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if q <= 0 {
		return h.samples[0]
	}
	if q >= 1 {
		return h.samples[n-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return h.samples[idx]
}

// Median is shorthand for Quantile(0.5).
func (h *Histogram) Median() time.Duration { return h.Quantile(0.5) }

// P95 is shorthand for Quantile(0.95).
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 is shorthand for Quantile(0.99).
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = false
	h.sum = 0
}
