package cache

import (
	"fmt"
	"testing"

	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/xrand"
)

// BenchmarkStorePut measures insertion with LRU eviction under steady
// churn.
func BenchmarkStorePut(b *testing.B) {
	s := NewStore(1<<20, NewLRU())
	v := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(fmt.Sprintf("k%d", i%4096), v, 1)
	}
}

// BenchmarkStoreGetHit measures the hot-path read.
func BenchmarkStoreGetHit(b *testing.B) {
	s := NewStore(1<<20, NewLRU())
	s.Put("k", make([]byte, 1024), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get("k")
	}
}

// BenchmarkConcurrentGet contrasts the single-mutex Store with the
// striped ShardedStore under parallel lookups — the TCP edge's actual
// access pattern, one goroutine per client connection. The mutex store
// serialises every Get; the sharded store only contends when two
// goroutines land on the same stripe, so throughput scales with
// GOMAXPROCS (on a single-core host the two are equivalent and only the
// stripe-hash overhead shows).
func BenchmarkConcurrentGet(b *testing.B) {
	const resident = 4096
	keys := make([]string, resident)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	run := func(b *testing.B, get func(string) ([]byte, bool), put func(string, []byte, float64) ([]string, error)) {
		for _, k := range keys {
			put(k, make([]byte, 256), 1)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				get(keys[i%resident])
				i++
			}
		})
	}
	b.Run("mutex", func(b *testing.B) {
		s := NewStore(64<<20, NewLRU())
		run(b, s.Get, s.Put)
	})
	b.Run("sharded", func(b *testing.B) {
		s := NewSharded(64<<20, 8, NewLRU)
		run(b, s.Get, s.Put)
	})
}

// BenchmarkConcurrentMixed repeats the comparison with a write-heavy mix
// (70% Get / 30% Put), where mutex convoying hurts most.
func BenchmarkConcurrentMixed(b *testing.B) {
	const resident = 4096
	keys := make([]string, resident)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	run := func(b *testing.B, get func(string) ([]byte, bool), put func(string, []byte, float64) ([]string, error)) {
		v := make([]byte, 256)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if i%10 < 7 {
					get(keys[i%resident])
				} else {
					put(keys[i%resident], v, 1)
				}
				i++
			}
		})
	}
	b.Run("mutex", func(b *testing.B) {
		s := NewStore(64<<20, NewLRU())
		run(b, s.Get, s.Put)
	})
	b.Run("sharded", func(b *testing.B) {
		s := NewSharded(64<<20, 8, NewLRU)
		run(b, s.Get, s.Put)
	})
}

// BenchmarkSimilarityLookup measures the edge's per-request descriptor
// match (exact map probe + vector index search) at a realistic cache
// population.
func BenchmarkSimilarityLookup(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("resident=%d", n), func(b *testing.B) {
			sc := NewSimilarity(SimilarityConfig{Capacity: 1 << 30, Threshold: 0.12})
			rng := xrand.New(1)
			var last feature.Descriptor
			for i := 0; i < n; i++ {
				v := make([]float32, 64)
				for j := range v {
					v[j] = float32(rng.NormFloat64())
				}
				last = feature.NewVector(v)
				sc.Insert(last, make([]byte, 64), 1)
			}
			q := make([]float32, 64)
			copy(q, last.Vec)
			q[0] += 0.01
			query := feature.NewVector(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc.Lookup(query)
			}
		})
	}
}
