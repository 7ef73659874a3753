package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // <= 0.001
	h.Observe(1 * time.Millisecond)   // boundary: le=0.001 bucket
	h.Observe(5 * time.Millisecond)   // <= 0.01
	h.Observe(2 * time.Second)        // +Inf
	h.Observe(-time.Second)           // clamps to 0, first bucket

	cum, count, sum := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	want := []uint64{3, 4, 4, 5} // cumulative: le=0.001, le=0.01, le=0.1, +Inf
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + 2*time.Second
	if sum != wantSum {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(nil)
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	cum, _, _ := h.snapshot()
	if got := cum[len(cum)-1]; got != goroutines*per {
		t.Fatalf("+Inf cumulative = %d, want %d", got, goroutines*per)
	}
}

func TestDefaultBucketsSorted(t *testing.T) {
	b := DefLatencyBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("default buckets not strictly ascending at %d: %v", i, b)
		}
	}
}
