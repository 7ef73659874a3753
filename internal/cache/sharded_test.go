package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/edge-immersion/coic/internal/feature"
)

// descForTest builds a distinct hash descriptor per n.
func descForTest(n int) feature.Descriptor {
	return feature.NewHash([]byte(fmt.Sprintf("entry-%d", n)))
}

func TestShardedBasics(t *testing.T) {
	s := NewSharded(8<<10, 4, NewLRU)
	if len(s.shards) != 4 {
		t.Fatalf("shards = %d", len(s.shards))
	}
	if s.Capacity() != 8<<10 {
		t.Fatalf("capacity = %d", s.Capacity())
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := s.Put(key, []byte(key), 1); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	if n := s.Stats().Entries; n != 64 {
		t.Fatalf("entries = %d, want 64", n)
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		v, ok := s.Get(key)
		if !ok || string(v) != key {
			t.Fatalf("get %s = %q, %v", key, v, ok)
		}
		if m, ok := s.Meta(key); !ok || m.Size != int64(len(key)) {
			t.Fatalf("meta %s = %+v, %v", key, m, ok)
		}
	}
	st := s.Stats()
	if st.Hits != 64 || st.Insertions != 64 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShardedTooLargeIsPerStripe(t *testing.T) {
	// 4 KB aggregate over 4 stripes = 1 KB eviction domains: a 2 KB value
	// can never live anywhere even though the aggregate could hold it.
	s := NewSharded(4<<10, 4, NewLRU)
	_, err := s.Put("big", make([]byte, 2<<10), 1)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestShardedEvictsWithinStripe(t *testing.T) {
	s := NewSharded(4<<10, 4, NewLRU)
	// Overfill massively; residency must never exceed capacity and every
	// stripe must stay within its own budget.
	for i := 0; i < 512; i++ {
		if _, err := s.Put(fmt.Sprintf("k%d", i), make([]byte, 256), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, sh := range s.shards {
		if used := sh.Stats().BytesUsed; used > sh.capacity {
			t.Fatalf("stripe %d holds %d B over its %d B", i, used, sh.capacity)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("expected evictions under churn")
	}
}

// TestShardedStoreConcurrent hammers one ShardedStore from many
// goroutines; run with -race it is the federation tentpole's concurrency
// proof for the storage layer.
func TestShardedStoreConcurrent(t *testing.T) {
	s := NewSharded(1<<20, 8, NewLRU)
	const workers = 16
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%512)
				switch i % 5 {
				case 0:
					s.Put(key, []byte(key), 1)
				case 1, 2, 3:
					if v, ok := s.Get(key); ok && string(v) != key {
						t.Errorf("get %s = %q", key, v)
						return
					}
				case 4:
					s.Meta(key)
					s.Stats()
				}
			}
		}()
	}
	wg.Wait()
	if used := s.Stats().BytesUsed; used > s.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", used, s.Capacity())
	}
}

// TestSimilaritySharded checks the stripe count NewSimilarity derives
// from capacity and exercises the cache under concurrent mixed lookups
// and inserts.
func TestSimilaritySharded(t *testing.T) {
	for capacity, want := range map[int64]int{
		256 << 20: 8, 128 << 20: 8, 127 << 20: 4, 64 << 20: 4, 32 << 20: 2, 16 << 20: 1, 1 << 20: 1,
	} {
		if got := len(NewSimilarity(SimilarityConfig{Capacity: capacity}).store.shards); got != want {
			t.Errorf("capacity %d: %d stripes, want %d", capacity, got, want)
		}
	}
	sc := NewSimilarity(SimilarityConfig{Capacity: 128 << 20, Threshold: 0.12})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				desc := descForTest(w*1000 + i%64)
				if i%3 == 0 {
					sc.Insert(desc, []byte{byte(i)}, 1)
				} else {
					sc.Lookup(desc)
				}
			}
		}()
	}
	wg.Wait()
	if st := sc.StatsSnapshot(); st.Queries == 0 || st.Queries != st.Store.Hits+st.Store.Misses {
		t.Fatalf("queries %d, store hits+misses %d", st.Queries, st.Store.Hits+st.Store.Misses)
	}
}
