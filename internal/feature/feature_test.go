package feature

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edge-immersion/coic/internal/xrand"
)

func TestNewVectorNormalises(t *testing.T) {
	d := NewVector([]float32{3, 4})
	var n float64
	for _, v := range d.Vec {
		n += float64(v) * float64(v)
	}
	if math.Abs(math.Sqrt(n)-1) > 1e-6 {
		t.Fatalf("norm = %v", math.Sqrt(n))
	}
}

func TestNewVectorCopies(t *testing.T) {
	src := []float32{1, 0}
	d := NewVector(src)
	src[0] = 99
	if d.Vec[0] != 1 {
		t.Fatal("NewVector aliased caller slice")
	}
}

func TestNewVectorZeroSafe(t *testing.T) {
	d := NewVector([]float32{0, 0, 0})
	for _, v := range d.Vec {
		if v != 0 || math.IsNaN(float64(v)) {
			t.Fatalf("zero vector mangled: %v", d.Vec)
		}
	}
}

func TestHashDescriptorIdentity(t *testing.T) {
	a := NewHash([]byte("model-1"))
	b := NewHash([]byte("model-1"))
	c := NewHash([]byte("model-2"))
	if a.Sum != b.Sum {
		t.Fatal("same content, different hash")
	}
	if a.Sum == c.Sum {
		t.Fatal("different content, same hash")
	}
	if a.Key() == c.Key() {
		t.Fatal("Key collision for different content")
	}
}

func TestVectorKeyExactness(t *testing.T) {
	a := NewVector([]float32{1, 2, 3})
	b := NewVector([]float32{1, 2, 3})
	c := NewVector([]float32{1, 2, 3.0001})
	if a.Key() != b.Key() {
		t.Fatal("identical vectors, different keys")
	}
	if a.Key() == c.Key() {
		t.Fatal("different vectors, same key")
	}
}

func TestDistances(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := L2Distance(a, b); math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Fatalf("L2 = %v", got)
	}
}

func TestL2PanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	L2Distance([]float32{1}, []float32{1, 2})
}

func TestMarshalRoundTripVector(t *testing.T) {
	f := func(raw []float32) bool {
		for i, v := range raw {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				raw[i] = 0.5
			}
		}
		d := NewVector(raw)
		data, err := d.Marshal()
		if err != nil {
			return false
		}
		if len(data) != d.SizeBytes() {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil || got.Kind != KindVector || len(got.Vec) != len(d.Vec) {
			return false
		}
		for i := range d.Vec {
			if got.Vec[i] != d.Vec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTripHash(t *testing.T) {
	d := NewHash([]byte("panorama-frame-7"))
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != d.SizeBytes() {
		t.Fatalf("SizeBytes %d != marshalled %d", d.SizeBytes(), len(data))
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindHash || got.Sum != d.Sum {
		t.Fatal("hash did not round-trip")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},                                   // unknown kind
		{byte(KindVector)},                     // truncated header
		{byte(KindHash), 1, 2},                 // short hash
		{byte(KindVector), 255, 255, 255, 255}, // absurd dim
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Length mismatch.
	d := NewVector([]float32{1, 2})
	data, _ := d.Marshal()
	if _, err := Unmarshal(data[:len(data)-1]); err == nil {
		t.Error("truncated vector accepted")
	}
}

func randomVecs(n, dim int, seed uint64) map[uint64][]float32 {
	rng := xrand.New(seed)
	out := make(map[uint64][]float32, n)
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		out[uint64(i+1)] = NewVector(v).Vec
	}
	return out
}

func TestLinearNearestIsGroundTruth(t *testing.T) {
	idx := NewLinear()
	vecs := randomVecs(200, 16, 1)
	for id, v := range vecs {
		idx.Add(id, v)
	}
	rng := xrand.New(2)
	for trial := 0; trial < 20; trial++ {
		q := make([]float32, 16)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		q = NewVector(q).Vec
		gotID, gotDist, ok := idx.Nearest(q)
		if !ok {
			t.Fatal("nearest not found")
		}
		// Brute force verify.
		best := math.Inf(1)
		var bestID uint64
		for id, v := range vecs {
			if d := L2Distance(q, v); d < best || (d == best && id < bestID) {
				best, bestID = d, id
			}
		}
		if gotID != bestID || math.Abs(gotDist-best) > 1e-12 {
			t.Fatalf("linear nearest (%d,%v) != brute force (%d,%v)", gotID, gotDist, bestID, best)
		}
	}
}

func TestLinearEmptyAndRemove(t *testing.T) {
	idx := NewLinear()
	if _, _, ok := idx.Nearest([]float32{1}); ok {
		t.Fatal("empty index returned a result")
	}
	idx.Add(7, []float32{1, 0})
	idx.Remove(7)
	idx.Remove(7) // double remove is fine
	if idx.Len() != 0 {
		t.Fatalf("Len = %d after remove", idx.Len())
	}
}

func TestLinearAddCopies(t *testing.T) {
	idx := NewLinear()
	v := []float32{1, 0}
	idx.Add(1, v)
	v[0] = 0
	id, dist, _ := idx.Nearest([]float32{1, 0})
	if id != 1 || dist > 1e-9 {
		t.Fatal("index aliased caller slice")
	}
}

func TestLSHFindsExactDuplicate(t *testing.T) {
	idx := NewLSH(16, 8, 12, 3)
	vecs := randomVecs(500, 16, 4)
	for id, v := range vecs {
		idx.Add(id, v)
	}
	// Querying with a stored vector must find it at distance 0: identical
	// vectors share every signature.
	for id, v := range vecs {
		gotID, d, ok := idx.Nearest(v)
		if !ok {
			t.Fatalf("id %d: no result", id)
		}
		if d > 1e-9 && gotID != id {
			t.Fatalf("id %d: found %d at distance %v", id, gotID, d)
		}
	}
}

func TestLSHFindsNearNeighbourMostly(t *testing.T) {
	idx := NewLSH(32, 10, 10, 5)
	vecs := randomVecs(300, 32, 6)
	for id, v := range vecs {
		idx.Add(id, v)
	}
	rng := xrand.New(7)
	found := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		// Perturb a stored vector slightly: a realistic "same object,
		// different viewpoint" query.
		target := uint64(rng.Intn(300) + 1)
		q := make([]float32, 32)
		copy(q, vecs[target])
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.02)
		}
		q = NewVector(q).Vec
		id, _, ok := idx.Nearest(q)
		if ok && id == target {
			found++
		}
	}
	if found < trials*85/100 {
		t.Fatalf("LSH recall %d/%d below 85%%", found, trials)
	}
}

func TestLSHNeverUnderestimatesDistance(t *testing.T) {
	// Property: whatever LSH returns, the reported distance matches the
	// true L2 distance to that id's vector, and the true nearest distance
	// (from Linear) is never larger.
	lin := NewLinear()
	lsh := NewLSH(8, 6, 8, 9)
	vecs := randomVecs(200, 8, 10)
	for id, v := range vecs {
		lin.Add(id, v)
		lsh.Add(id, v)
	}
	rng := xrand.New(11)
	for trial := 0; trial < 50; trial++ {
		q := make([]float32, 8)
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		q = NewVector(q).Vec
		lshID, lshDist, ok := lsh.Nearest(q)
		if !ok {
			continue
		}
		if math.Abs(L2Distance(q, vecs[lshID])-lshDist) > 1e-12 {
			t.Fatal("LSH reported a wrong distance")
		}
		_, linDist, _ := lin.Nearest(q)
		if lshDist < linDist-1e-12 {
			t.Fatal("LSH found something closer than exact search — impossible")
		}
	}
}

func TestLSHRemove(t *testing.T) {
	idx := NewLSH(4, 4, 6, 1)
	v := NewVector([]float32{1, 2, 3, 4}).Vec
	idx.Add(42, v)
	if idx.Len() != 1 {
		t.Fatal("add failed")
	}
	idx.Remove(42)
	if idx.Len() != 0 {
		t.Fatal("remove failed")
	}
	if _, _, ok := idx.Nearest(v); ok {
		t.Fatal("removed vector still findable")
	}
	idx.Remove(42) // no-op
}

func TestLSHReAddReplaces(t *testing.T) {
	idx := NewLSH(2, 4, 4, 1)
	idx.Add(1, NewVector([]float32{1, 0}).Vec)
	idx.Add(1, NewVector([]float32{0, 1}).Vec)
	if idx.Len() != 1 {
		t.Fatalf("Len = %d after re-add", idx.Len())
	}
	id, d, ok := idx.Nearest(NewVector([]float32{0, 1}).Vec)
	if !ok || id != 1 || d > 1e-9 {
		t.Fatalf("re-added vector not found: id=%d d=%v ok=%v", id, d, ok)
	}
}

func TestLSHWrongDimension(t *testing.T) {
	idx := NewLSH(4, 2, 4, 1)
	if _, _, ok := idx.Nearest([]float32{1, 2}); ok {
		t.Fatal("wrong-dimension query returned a result")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-dimension Add did not panic")
		}
	}()
	idx.Add(1, []float32{1, 2})
}

func TestNewLSHValidatesParams(t *testing.T) {
	for _, params := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {4, 2, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLSH(%v) did not panic", params)
				}
			}()
			NewLSH(params[0], params[1], params[2], 1)
		}()
	}
}
