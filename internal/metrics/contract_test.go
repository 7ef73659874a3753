package metrics

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrencyContract guards the documented contract:
// Histogram has no internal synchronisation — shared use requires an
// external mutex around EVERY method, reads included (the quantile
// family sorts the sample slice in place). The test exercises exactly
// that usage under -race; unsynchronised sharing is the caller's bug,
// not a mode this type supports. Live hot paths belong on obs.Histogram
// instead.
func TestHistogramConcurrencyContract(t *testing.T) {
	var (
		mu sync.Mutex
		h  Histogram
		wg sync.WaitGroup
	)
	const goroutines, perG = 8, 1000
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				mu.Lock()
				h.Record(time.Duration(g*perG+i) * time.Microsecond)
				if i%97 == 0 {
					// Reads mutate too (lazy in-place sort), so they sit
					// under the same lock.
					h.P95()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("Count = %d, want %d (samples lost under external locking)", got, goroutines*perG)
	}
	n := goroutines * perG
	want := time.Duration(n*(n-1)/2) * time.Microsecond / time.Duration(n)
	if got := h.Mean(); got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

// TestHistogramStaysUnsynchronised fails if someone adds a lock or
// atomics to Histogram: that would change the documented contract (and
// silently tax every single-threaded experiment loop). Concurrency-safe
// live metrics belong in internal/obs, not here — if you hit this test
// wanting thread safety, use obs.Histogram or wrap this one in a mutex
// at the call site.
func TestHistogramStaysUnsynchronised(t *testing.T) {
	typ := reflect.TypeOf(Histogram{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := f.Type.String()
		switch {
		case name == "sync.Mutex" || name == "sync.RWMutex":
			t.Errorf("field %s is a %s: Histogram is documented non-concurrent; see internal/obs for the live-path type", f.Name, name)
		case len(name) >= 7 && name[:7] == "atomic.":
			t.Errorf("field %s is %s: Histogram is documented non-concurrent; see internal/obs for the live-path type", f.Name, name)
		}
	}
}
