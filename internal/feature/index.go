package feature

import (
	"fmt"
	"sync"

	"github.com/edge-immersion/coic/internal/xrand"
)

// Index is a nearest-neighbour search structure over vector descriptors.
// The edge cache consults an Index to decide whether an incoming
// recognition descriptor is "close enough" to a cached one. Implementations
// must be safe for concurrent use.
type Index interface {
	// Add inserts a vector under id, replacing any previous vector with
	// the same id.
	Add(id uint64, vec []float32)
	// Remove deletes id; removing an absent id is a no-op.
	Remove(id uint64)
	// Nearest returns the id of the closest stored vector and its L2
	// distance. ok is false when the index is empty or (for approximate
	// implementations) no candidate was found.
	Nearest(vec []float32) (id uint64, dist float64, ok bool)
	// Len reports how many vectors are stored.
	Len() int
}

// Linear is the exact brute-force index: ground truth for tests and the
// right choice for small caches where a scan beats hashing overhead.
type Linear struct {
	mu   sync.RWMutex
	vecs map[uint64][]float32
}

// NewLinear returns an empty exact index.
func NewLinear() *Linear {
	return &Linear{vecs: make(map[uint64][]float32)}
}

// Add implements Index.
func (l *Linear) Add(id uint64, vec []float32) {
	c := make([]float32, len(vec))
	copy(c, vec)
	l.mu.Lock()
	l.vecs[id] = c
	l.mu.Unlock()
}

// Remove implements Index.
func (l *Linear) Remove(id uint64) {
	l.mu.Lock()
	delete(l.vecs, id)
	l.mu.Unlock()
}

// Nearest implements Index with a full scan. Ties break toward the lowest
// id so results are deterministic.
func (l *Linear) Nearest(vec []float32) (uint64, float64, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var (
		bestID   uint64
		bestDist = -1.0
	)
	for id, v := range l.vecs {
		if len(v) != len(vec) {
			continue
		}
		d := L2Distance(vec, v)
		if bestDist < 0 || d < bestDist || (d == bestDist && id < bestID) {
			bestID, bestDist = id, d
		}
	}
	if bestDist < 0 {
		return 0, 0, false
	}
	return bestID, bestDist, true
}

// Len implements Index.
func (l *Linear) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.vecs)
}

// LSH is a random-hyperplane locality-sensitive hash index. Each of
// Tables hash tables assigns a vector a Bits-bit signature (the sign
// pattern of Bits random projections); near vectors collide in at least
// one table with high probability. Lookup cost is independent of index
// size as long as buckets stay small, which is what makes a big edge
// cache affordable (the A-index ablation quantifies this).
type LSH struct {
	dim    int
	tables int
	bits   int
	planes [][][]float32 // [table][bit][dim]

	mu      sync.RWMutex
	vecs    map[uint64][]float32
	buckets []map[uint64][]uint64 // per table: signature -> ids
}

// NewLSH builds an LSH index for dim-dimensional vectors. tables and bits
// trade recall for speed; NewLSH panics on non-positive parameters since
// they are build-time constants.
func NewLSH(dim, tables, bits int, seed uint64) *LSH {
	if dim <= 0 || tables <= 0 || bits <= 0 || bits > 64 {
		panic(fmt.Sprintf("feature: invalid LSH parameters dim=%d tables=%d bits=%d", dim, tables, bits))
	}
	rng := xrand.New(seed)
	planes := make([][][]float32, tables)
	for t := range planes {
		planes[t] = make([][]float32, bits)
		for b := range planes[t] {
			p := make([]float32, dim)
			for i := range p {
				p[i] = float32(rng.NormFloat64())
			}
			planes[t][b] = p
		}
	}
	l := &LSH{
		dim: dim, tables: tables, bits: bits, planes: planes,
		vecs:    make(map[uint64][]float32),
		buckets: make([]map[uint64][]uint64, tables),
	}
	for t := range l.buckets {
		l.buckets[t] = make(map[uint64][]uint64)
	}
	return l
}

// signature computes the sign pattern of vec against table t's planes.
func (l *LSH) signature(t int, vec []float32) uint64 {
	var sig uint64
	for b, plane := range l.planes[t] {
		var dot float32
		for i, p := range plane {
			dot += float32(p * vec[i]) // rounded apart: no FMA on any GOARCH
		}
		if dot >= 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// Add implements Index.
func (l *LSH) Add(id uint64, vec []float32) {
	if len(vec) != l.dim {
		panic(fmt.Sprintf("feature: LSH expects dim %d, got %d", l.dim, len(vec)))
	}
	c := make([]float32, len(vec))
	copy(c, vec)
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, exists := l.vecs[id]; exists {
		l.removeLocked(id)
	}
	l.vecs[id] = c
	for t := 0; t < l.tables; t++ {
		sig := l.signature(t, c)
		l.buckets[t][sig] = append(l.buckets[t][sig], id)
	}
}

// Remove implements Index.
func (l *LSH) Remove(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.removeLocked(id)
}

func (l *LSH) removeLocked(id uint64) {
	vec, ok := l.vecs[id]
	if !ok {
		return
	}
	delete(l.vecs, id)
	for t := 0; t < l.tables; t++ {
		sig := l.signature(t, vec)
		ids := l.buckets[t][sig]
		for i, v := range ids {
			if v == id {
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				break
			}
		}
		if len(ids) == 0 {
			delete(l.buckets[t], sig)
		} else {
			l.buckets[t][sig] = ids
		}
	}
}

// Nearest implements Index: the union of the query's buckets across all
// tables is scanned exactly. A vector in no shared bucket is invisible —
// that is the approximation.
func (l *LSH) Nearest(vec []float32) (uint64, float64, bool) {
	if len(vec) != l.dim {
		return 0, 0, false
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	var (
		bestID   uint64
		bestDist = -1.0
		seen     = make(map[uint64]struct{})
	)
	for t := 0; t < l.tables; t++ {
		sig := l.signature(t, vec)
		for _, id := range l.buckets[t][sig] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			d := L2Distance(vec, l.vecs[id])
			if bestDist < 0 || d < bestDist || (d == bestDist && id < bestID) {
				bestID, bestDist = id, d
			}
		}
	}
	if bestDist < 0 {
		return 0, 0, false
	}
	return bestID, bestDist, true
}

// Len implements Index.
func (l *LSH) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.vecs)
}
