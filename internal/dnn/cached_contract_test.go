package dnn

import (
	"reflect"
	"sync"
	"testing"

	"github.com/edge-immersion/coic/internal/tensor"
)

// TestCachedRunnerConcurrencyContract guards the documented contract
// (the counterpart of metrics.Histogram's contract test, with the
// opposite polarity): CachedRunner IS safe for concurrent use, so a
// server's workers may share one runner. The test hammers Forward, Stats
// and Entries from many goroutines under -race, then checks the
// counters add up — a torn lookup/counter pair or a mutated memo entry
// shows up as a count mismatch or a race report.
func TestCachedRunnerConcurrencyContract(t *testing.T) {
	net := NewEdgeNet(testClasses[:3], 8, 5)
	cr := NewCachedRunner(net, 0)
	rng := newTestRNG()
	distinct := make([]*tensor.Tensor, 4)
	for i := range distinct {
		in := tensor.New(3, 8, 8)
		in.RandNormal(rng, 1)
		distinct[i] = in
	}
	want := make([]*tensor.Tensor, len(distinct))
	for i, in := range distinct {
		want[i] = net.Forward(in)
	}

	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	var steps sync.Map // goroutine -> layer steps it triggered
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mySteps uint64
			layers := uint64(len(net.Layers))
			for i := 0; i < iters; i++ {
				k := (g + i) % len(distinct)
				mySteps += layers
				requireBitEqual(t, "concurrent Forward", cr.Forward(distinct[k]), want[k])
				cr.Stats()
				cr.Entries()
			}
			steps.Store(g, mySteps)
		}()
	}
	wg.Wait()
	var total uint64
	steps.Range(func(_, v any) bool { total += v.(uint64); return true })
	hits, misses := cr.Stats()
	if hits+misses != total {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d layer steps (torn counter update)",
			hits, misses, hits+misses, total)
	}
}

// TestCachedRunnerStaysSynchronised fails if someone removes the mutex:
// that would silently change the documented concurrent-use contract
// (and defeat go vet's copylocks guard). The inverse
// of metrics.TestHistogramStaysUnsynchronised — these two types document
// opposite contracts, and each test pins its own.
func TestCachedRunnerStaysSynchronised(t *testing.T) {
	typ := reflect.TypeOf(CachedRunner{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := f.Type.String()
		if name == "sync.Mutex" || name == "sync.RWMutex" {
			return
		}
	}
	t.Fatal("CachedRunner has no mutex field: it is documented safe for concurrent use; restore the lock or rewrite the contract (and this test) deliberately")
}

// TestCachedRunnerResetDuringTraffic verifies Reset can interleave with
// live traffic without corrupting results: counters may reset mid-flight
// but outputs must stay golden (entries are write-once clones, so an old
// pointer survives the map swap).
func TestCachedRunnerResetDuringTraffic(t *testing.T) {
	net := NewEdgeNet(testClasses[:2], 8, 9)
	cr := NewCachedRunner(net, 0)
	in := tensor.New(3, 8, 8)
	in.RandNormal(newTestRNG(), 1)
	want := net.Forward(in)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				cr.Reset()
			}
		}
	}()
	for i := 0; i < 50; i++ {
		requireBitEqual(t, "Forward racing Reset", cr.Forward(in), want)
	}
	close(stop)
	wg.Wait()
}
