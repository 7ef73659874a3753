package cache

import (
	"errors"
	"sync"
	"testing"

	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/xrand"
)

func vecDesc(vals ...float32) feature.Descriptor { return feature.NewVector(vals) }

func newSim(capacity int64, threshold float64) *SimilarityCache {
	return NewSimilarity(SimilarityConfig{Capacity: capacity, Threshold: threshold})
}

func TestSimilarityExactHashHit(t *testing.T) {
	sc := newSim(1024, 0.1)
	d := feature.NewHash([]byte("model-blob"))
	if err := sc.Insert(d, []byte("loaded-model"), 1); err != nil {
		t.Fatal(err)
	}
	v, res := sc.Lookup(d)
	if res.Outcome != OutcomeExact || string(v) != "loaded-model" {
		t.Fatalf("lookup = %q, %+v", v, res)
	}
}

func TestSimilarityMissOnUnknownHash(t *testing.T) {
	sc := newSim(1024, 0.1)
	_, res := sc.Lookup(feature.NewHash([]byte("never-seen")))
	if res.Hit() {
		t.Fatal("phantom hit")
	}
}

func TestSimilarityVectorThreshold(t *testing.T) {
	sc := newSim(1024, 0.1)
	base := vecDesc(1, 0, 0, 0)
	if err := sc.Insert(base, []byte("label:stop-sign"), 1); err != nil {
		t.Fatal(err)
	}

	// Identical vector: exact hit (key match short-circuits).
	_, res := sc.Lookup(vecDesc(1, 0, 0, 0))
	if res.Outcome != OutcomeExact {
		t.Fatalf("identical vector outcome = %v", res.Outcome)
	}

	// Slightly rotated: similar hit.
	near := vecDesc(0.999, 0.04, 0, 0)
	v, res := sc.Lookup(near)
	if res.Outcome != OutcomeSimilar || string(v) != "label:stop-sign" {
		t.Fatalf("near vector = %q, %+v", v, res)
	}
	if res.Distance <= 0 || res.Distance > 0.1 {
		t.Fatalf("similar distance = %v", res.Distance)
	}

	// Orthogonal: miss.
	_, res = sc.Lookup(vecDesc(0, 1, 0, 0))
	if res.Hit() {
		t.Fatal("orthogonal vector hit")
	}
}

func TestSimilarityThresholdBoundary(t *testing.T) {
	// Distance between unit vectors at angle θ is 2sin(θ/2); pick two
	// vectors straddling the threshold.
	sc := newSim(1024, 0.2)
	sc.Insert(vecDesc(1, 0), []byte("r"), 1)
	_, res := sc.Lookup(vecDesc(0.995, 0.0999)) // dist ≈ 0.1003 < 0.2
	if !res.Hit() {
		t.Fatal("inside threshold missed")
	}
	_, res = sc.Lookup(vecDesc(0.9, 0.436)) // dist ≈ 0.45 > 0.2
	if res.Hit() {
		t.Fatal("outside threshold hit")
	}
}

func TestSimilarityEvictionRemovesFromIndex(t *testing.T) {
	sc := NewSimilarity(SimilarityConfig{Capacity: 8, Threshold: 0.5})
	a := vecDesc(1, 0)
	b := vecDesc(0, 1)
	sc.Insert(a, val(6), 1)
	sc.Insert(b, val(6), 1) // evicts a's entry
	if sc.IndexLen() != 1 {
		t.Fatalf("index holds %d vectors after eviction, want 1", sc.IndexLen())
	}
	_, res := sc.Lookup(vecDesc(0.999, 0.02))
	if res.Hit() {
		t.Fatal("evicted vector still matchable")
	}
	_, res = sc.Lookup(vecDesc(0.02, 0.999))
	if !res.Hit() {
		t.Fatal("resident vector not matchable")
	}
}

func TestSimilarityReinsertSameKey(t *testing.T) {
	sc := newSim(1024, 0.2)
	d := vecDesc(1, 0)
	sc.Insert(d, []byte("v1"), 1)
	sc.Insert(d, []byte("v2"), 1)
	if sc.IndexLen() != 1 {
		t.Fatalf("index holds %d vectors after re-insert", sc.IndexLen())
	}
	v, res := sc.Lookup(vecDesc(0.999, 0.03))
	if !res.Hit() || string(v) != "v2" {
		t.Fatalf("got %q, %+v", v, res)
	}
}

func TestSimilarityTooLargeRollsBack(t *testing.T) {
	sc := newSim(4, 0.2)
	if err := sc.Insert(vecDesc(1, 0), val(100), 1); err == nil {
		t.Fatal("oversized insert accepted")
	}
	if sc.IndexLen() != 0 {
		t.Fatal("failed insert left index residue")
	}
}

func TestSimilarityQueryStats(t *testing.T) {
	sc := newSim(1024, 0.1)
	sc.Insert(vecDesc(1, 0, 0), []byte("x"), 1)
	sc.Lookup(vecDesc(1, 0, 0))        // exact
	sc.Lookup(vecDesc(0.999, 0.04, 0)) // similar
	sc.Lookup(vecDesc(0, 1, 0))        // miss
	if st := sc.StatsSnapshot(); st.Queries != 3 || st.ExactHits != 1 || st.SimilarHits != 1 {
		t.Fatalf("queries, exact, similar = %d,%d,%d", st.Queries, st.ExactHits, st.SimilarHits)
	}
}

func TestSimilarityWithLSHIndex(t *testing.T) {
	// The full stack with an LSH index instead of linear scan: inserts,
	// similarity hits and evictions must keep index/store consistent.
	sc := NewSimilarity(SimilarityConfig{
		Capacity:  50,
		Threshold: 0.15,
		Index:     feature.NewLSH(16, 8, 10, 42),
	})
	rng := xrand.New(9)
	mkVec := func() []float32 {
		v := make([]float32, 16)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	descs := make([]feature.Descriptor, 30)
	for i := range descs {
		descs[i] = feature.NewVector(mkVec())
		sc.Insert(descs[i], val(5), 1)
	}
	if n := sc.StatsSnapshot().Store.Entries; sc.IndexLen() != n {
		t.Fatalf("index %d != store %d", sc.IndexLen(), n)
	}
	// Perturbed duplicates of resident vectors should mostly hit.
	hits := 0
	for i := 20; i < 30; i++ { // most recent 10 certainly resident
		perturbed := make([]float32, 16)
		copy(perturbed, descs[i].Vec)
		perturbed[0] += 0.01
		_, res := sc.Lookup(feature.NewVector(perturbed))
		if res.Hit() {
			hits++
		}
	}
	if hits < 7 {
		t.Fatalf("only %d/10 perturbed lookups hit with LSH", hits)
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeMiss.String() != "miss" || OutcomeExact.String() != "exact" || OutcomeSimilar.String() != "similar" {
		t.Fatal("bad outcome names")
	}
}

func TestSimilarityManyInsertLookupCycles(t *testing.T) {
	// Churn far beyond capacity; the index must track the store exactly.
	sc := NewSimilarity(SimilarityConfig{Capacity: 40, Threshold: 0.05})
	rng := xrand.New(77)
	for i := 0; i < 500; i++ {
		v := make([]float32, 8)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		if err := sc.Insert(feature.NewVector(v), val(4+rng.Intn(5)), 1); err != nil {
			t.Fatal(err)
		}
		if n := sc.StatsSnapshot().Store.Entries; sc.IndexLen() != n {
			t.Fatalf("iteration %d: index %d != store %d", i, sc.IndexLen(), n)
		}
	}
	if sc.StatsSnapshot().Store.Evictions == 0 {
		t.Fatal("workload did not evict — test ineffective")
	}
}

// TestTenantCapHoldsUnderConcurrentInserts races 64 inserts of 100 B for
// one tenant capped at 1 000 B. The cap check and the byte charge must
// be one step, or several inserts pass the check before any is charged.
func TestTenantCapHoldsUnderConcurrentInserts(t *testing.T) {
	const inserters, size, capBytes = 64, 100, 1000
	for round := 0; round < 200; round++ {
		sc := NewSimilarity(SimilarityConfig{Capacity: 128 << 20})
		sc.SetTenantCap("t", capBytes)
		var wg sync.WaitGroup
		for g := 0; g < inserters; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				if err := sc.InsertAs("t", descForTest(n), val(size), 1); err != nil && !errors.Is(err, ErrTenantShare) {
					t.Error(err)
				}
			}(round*inserters + g)
		}
		wg.Wait()
		ts := sc.StatsSnapshot().Tenants["t"]
		if ts.Bytes > capBytes {
			t.Fatalf("round %d: tenant holds %d B under a %d B cap", round, ts.Bytes, capBytes)
		}
		if ts.Inserts+ts.Rejected != inserters {
			t.Fatalf("round %d: %d inserts + %d rejections, want %d", round, ts.Inserts, ts.Rejected, inserters)
		}
	}
}

// TestIndexMatchesStoreUnderChurn cycles 32 orthogonal vectors through an
// 8-entry cache from 8 goroutines. After every round the index must hold
// exactly the resident vectors: no vector of an evicted entry, and every
// resident entry reachable by a similarity lookup near its own vector.
func TestIndexMatchesStoreUnderChurn(t *testing.T) {
	const workers, inserts, distinct, entries, size = 8, 200, 32, 8, 16
	descs := make([]feature.Descriptor, distinct)
	for i := range descs {
		v := make([]float32, distinct)
		v[i] = 1
		descs[i] = feature.NewVector(v)
	}
	sc := NewSimilarity(SimilarityConfig{Capacity: entries * size, Threshold: 0.1})
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < inserts; i++ {
					if err := sc.Insert(descs[(w*5+i)%distinct], val(size), 1); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		resident := sc.StatsSnapshot().Store.Entries
		if n := sc.IndexLen(); n != resident {
			t.Fatalf("round %d: index holds %d vectors, store %d entries", round, n, resident)
		}
		found := 0
		for i, d := range descs {
			// Nudge the query off the stored vector so it misses the exact
			// key and must go through the index.
			q := append([]float32(nil), d.Vec...)
			q[(i+1)%distinct] = 0.02
			if _, res := sc.Lookup(feature.NewVector(q)); res.Outcome == OutcomeSimilar && res.Key == d.Key() {
				found++
			}
		}
		if found != resident {
			t.Fatalf("round %d: %d of %d resident vectors found through the index", round, found, resident)
		}
	}
}

// TestWalkSeesEveryReadableEntry checks that a residency walk taken after
// a lookup has read an entry visits that entry, even when the walk starts
// between the insert's store put and its commit. A decommission drain
// depends on it: a key a peer can read must move with the drain.
func TestWalkSeesEveryReadableEntry(t *testing.T) {
	for n := 0; n < 500; n++ {
		sc := NewSimilarity(SimilarityConfig{Capacity: 1 << 10})
		desc := descForTest(n)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := sc.Insert(desc, val(8), 1); err != nil {
				t.Error(err)
			}
		}()
		for {
			if _, res := sc.Lookup(desc); res.Hit() {
				break
			}
		}
		seen := false
		sc.ForEachResident(func(d feature.Descriptor, _ []byte, _ float64) bool {
			seen = d.Key() == desc.Key()
			return !seen
		})
		<-done
		if !seen {
			t.Fatalf("insert %d: readable entry missing from the walk", n)
		}
	}
}
