package dnn

import (
	"math"
	"runtime"
	"testing"

	"github.com/edge-immersion/coic/internal/tensor"
)

func TestConv2DKnownValues(t *testing.T) {
	// 1 input channel, 1 output channel, 2x2 kernel, stride 1, no pad.
	c := NewConv2D("c", 1, 1, 2, 1, 0)
	copy(c.W.Data, []float32{1, 0, 0, 1}) // identity-ish: sums main diagonal
	c.B.Data[0] = 0.5
	in := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out := c.Forward(in)
	want := []float32{1 + 5 + 0.5, 2 + 6 + 0.5, 4 + 8 + 0.5, 5 + 9 + 0.5}
	if got := out.Shape(); got[0] != 1 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("shape = %v", got)
	}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("out = %v, want %v", out.Data, want)
		}
	}
}

func TestConv2DPaddingKeepsSize(t *testing.T) {
	c := NewConv2D("c", 1, 1, 3, 1, 1)
	c.W.Data[4] = 1 // center tap: identity conv
	in := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	out := c.Forward(in)
	if s := out.Shape(); s[1] != 2 || s[2] != 2 {
		t.Fatalf("padded conv changed size: %v", s)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv altered data: %v", out.Data)
		}
	}
}

func TestConv2DStride(t *testing.T) {
	c := NewConv2D("c", 1, 1, 1, 2, 0)
	c.W.Data[0] = 1
	in := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out := c.Forward(in)
	want := []float32{1, 3, 9, 11}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("stride-2 sampling = %v, want %v", out.Data, want)
		}
	}
}

func TestConv2DRejectsWrongChannels(t *testing.T) {
	c := NewConv2D("c", 3, 4, 3, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong channel count did not panic")
		}
	}()
	c.Forward(tensor.New(1, 8, 8))
}

func TestMaxPool(t *testing.T) {
	p := NewMaxPool2D("p", 2, 2)
	in := tensor.FromSlice([]float32{
		1, 5, 2, 0,
		3, 4, 1, 1,
		-1, -2, 9, 8,
		-3, -4, 7, 6,
	}, 1, 4, 4)
	out := p.Forward(in)
	want := []float32{5, 2, -1, 9}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolNegativeOnly(t *testing.T) {
	p := NewMaxPool2D("p", 2, 2)
	in := tensor.FromSlice([]float32{-5, -1, -2, -9}, 1, 2, 2)
	if got := p.Forward(in).Data[0]; got != -1 {
		t.Fatalf("all-negative max = %v, want -1", got)
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{LayerName: "r"}
	in := tensor.FromSlice([]float32{-1, 0, 2}, 3)
	out := r.Forward(in)
	want := []float32{0, 0, 2}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("relu = %v", out.Data)
		}
	}
	if in.Data[0] != -1 {
		t.Fatal("ReLU mutated its input")
	}
}

// TestForwardAndFeaturesLeaveInputUnchanged checks that the serial
// passes, which clamp a ReLU's input in place when a layer before made
// it, never clamp the caller's tensor, even when a ReLU comes first, and
// that the in-place clamp gives ReLU.Forward's bits, -0 included.
func TestForwardAndFeaturesLeaveInputUnchanged(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	in := tensor.New(3, 32, 32)
	in.RandNormal(newTestRNG(), 1)
	in.Data[0], in.Data[1] = negZero, -1
	want := in.Clone()
	reluFirst := &Network{
		NetName:    "relu-first",
		InputShape: []int{3, 32, 32},
		Layers: []Layer{
			&ReLU{LayerName: "relu0"},
			&Flatten{LayerName: "flat"},
			&ReLU{LayerName: "relu1"},
		},
		FeatureLayer: 2,
	}
	for _, n := range []*Network{NewEdgeNet(testClasses, 32, 1), reluFirst} {
		n.Features(in)
		n.Forward(in)
		if i := sameBits(in.Data, want.Data); i >= 0 {
			t.Fatalf("%s: input[%d] became %v, was %v", n.NetName, i, in.Data[i], want.Data[i])
		}
	}
	relu := (&ReLU{}).Forward(in)
	if i := sameBits(reluFirst.Forward(in).Data, relu.Data); i >= 0 {
		t.Fatalf("in-place ReLU differs from ReLU.Forward at %d", i)
	}
	if math.Float32bits(relu.Data[0]) != 1<<31 || relu.Data[1] != 0 {
		t.Fatalf("ReLU(-0, -1) = (%v, %v), want (-0, 0)", relu.Data[0], relu.Data[1])
	}
}

// TestFeaturesAllocationBudget pins what one 64×64 descriptor pass puts on
// the heap: each layer's output and little else (34 allocations, 558 KB),
// since a ReLU clamps the convolution's output in place instead of
// copying it (1017 KB when it copied).
func TestFeaturesAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what a pass allocates")
	}
	n := NewEdgeNet(testClasses, 64, 1)
	in := tensor.New(3, 64, 64)
	in.RandNormal(newTestRNG(), 1)
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() { n.Features(in) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		n.Features(in)
	}
	runtime.ReadMemStats(&after)
	perPass := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("64×64 Features: %.0f allocations, %d B", allocs, perPass)
	if allocs > 34 || perPass >= 600<<10 {
		t.Fatalf("a 64×64 Features pass makes %.0f allocations and %d B, want ≤ 34 and < 600 KiB",
			allocs, perPass)
	}
}

func TestDense(t *testing.T) {
	d := NewDense("d", 2, 2)
	copy(d.W.Data, []float32{1, 2, 3, 4})
	copy(d.B.Data, []float32{10, 20})
	out := d.Forward(tensor.FromSlice([]float32{1, 1}, 2))
	if out.Data[0] != 13 || out.Data[1] != 27 {
		t.Fatalf("dense = %v", out.Data)
	}
}

func TestSoftmaxIsDistribution(t *testing.T) {
	s := &Softmax{LayerName: "s"}
	out := s.Forward(tensor.FromSlice([]float32{1, 2, 3, 1000}, 4))
	var sum float32
	for _, v := range out.Data {
		if v < 0 || v > 1 {
			t.Fatalf("probability out of range: %v", out.Data)
		}
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("softmax sum = %v", sum)
	}
	if idx, _ := out.Argmax(); idx != 3 {
		t.Fatal("softmax changed the argmax")
	}
}

func TestFlatten(t *testing.T) {
	f := &Flatten{LayerName: "f"}
	out := f.Forward(tensor.New(2, 3, 4))
	if out.Rank() != 1 || out.Len() != 24 {
		t.Fatalf("flatten shape: rank=%d len=%d", out.Rank(), out.Len())
	}
}

var testClasses = []string{"stop-sign", "car", "avatar", "tree", "building", "signal", "person", "dog"}

func TestEdgeNetDeterministic(t *testing.T) {
	a := NewEdgeNet(testClasses, 32, 99)
	b := NewEdgeNet(testClasses, 32, 99)
	in := tensor.New(3, 32, 32)
	in.RandNormal(newTestRNG(), 1)
	fa, fb := a.Features(in), b.Features(in)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same seed produced different networks")
		}
	}
	c := NewEdgeNet(testClasses, 32, 100)
	fc := c.Features(in)
	same := true
	for i := range fa {
		if fa[i] != fc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical features")
	}
}

func TestEdgeNetFeatureGeometry(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 1)
	if got := n.FeatureDim(); got != 64 {
		t.Fatalf("FeatureDim = %d, want 64", got)
	}
	in := tensor.New(3, 32, 32)
	in.Fill(0.3)
	f := n.Features(in)
	var norm float64
	for _, v := range f {
		norm += float64(v) * float64(v)
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-4 {
		t.Fatalf("features not unit-norm: %v", math.Sqrt(norm))
	}
}

func TestTrunkSharesWeights(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 1)
	trunk := n.Trunk()
	if len(trunk.Layers) != n.FeatureLayer+1 {
		t.Fatalf("trunk has %d layers, want %d", len(trunk.Layers), n.FeatureLayer+1)
	}
	in := tensor.New(3, 32, 32)
	in.RandNormal(newTestRNG(), 1)
	fFull, fTrunk := n.Features(in), trunk.Features(in)
	for i := range fFull {
		if fFull[i] != fTrunk[i] {
			t.Fatal("trunk features diverge from full network")
		}
	}
}

func TestFLOPsAccounting(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 1)
	trunk, total := n.TrunkFLOPs(), n.TotalFLOPs()
	if trunk <= 0 || total <= 0 {
		t.Fatalf("non-positive FLOPs: trunk=%d total=%d", trunk, total)
	}
	if trunk >= total {
		t.Fatalf("trunk FLOPs %d not below total %d", trunk, total)
	}
}

func TestValidateCatchesBadNetworks(t *testing.T) {
	good := NewEdgeNet(testClasses, 32, 1)
	cases := map[string]func(*Network){
		"no layers":         func(n *Network) { n.Layers = nil },
		"bad input rank":    func(n *Network) { n.InputShape = []int{3, 32} },
		"feature layer oob": func(n *Network) { n.FeatureLayer = 99 },
		"duplicate names":   func(n *Network) { n.Layers[1] = &ReLU{LayerName: "conv1"} },
		"class count":       func(n *Network) { n.Classes = n.Classes[:3] },
	}
	for name, mutate := range cases {
		n := NewEdgeNet(testClasses, 32, 1)
		mutate(n)
		if err := n.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken network", name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good network rejected: %v", err)
	}
}

func TestCachedRunnerHitsOnIdenticalInput(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 3)
	cr := NewCachedRunner(n, 0)
	in := tensor.New(3, 32, 32)
	in.RandNormal(newTestRNG(), 1)

	base := n.Forward(in)
	out1 := cr.Forward(in)
	hits1, misses1 := cr.Stats()
	if hits1 != 0 || misses1 != uint64(len(n.Layers)) {
		t.Fatalf("first pass: hits=%d misses=%d", hits1, misses1)
	}
	out2 := cr.Forward(in)
	hits2, _ := cr.Stats()
	if hits2 != uint64(len(n.Layers)) {
		t.Fatalf("second pass hits = %d, want %d", hits2, len(n.Layers))
	}
	for i := range base.Data {
		if out1.Data[i] != base.Data[i] || out2.Data[i] != base.Data[i] {
			t.Fatal("cached runner output diverges from plain forward")
		}
	}
}

func TestCachedRunnerDistinguishesInputs(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 3)
	cr := NewCachedRunner(n, 0)
	a := tensor.New(3, 32, 32)
	a.RandNormal(newTestRNG(), 1)
	b := a.Clone()
	b.Data[0] += 1 // one-element difference

	outA := cr.Forward(a)
	outB := cr.Forward(b)
	plainB := n.Forward(b)
	for i := range plainB.Data {
		if outB.Data[i] != plainB.Data[i] {
			t.Fatal("near-identical input wrongly reused cached activations")
		}
	}
	_ = outA
}

func TestCachedRunnerBounded(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 3)
	cr := NewCachedRunner(n, 5)
	for i := 0; i < 4; i++ {
		in := tensor.New(3, 32, 32)
		in.Data[0] = float32(i)
		cr.Forward(in)
	}
	if got := cr.Entries(); got > 5 {
		t.Fatalf("cache grew to %d entries, cap is 5", got)
	}
	cr.Reset()
	if cr.Entries() != 0 {
		t.Fatal("Reset left entries")
	}
	if h, m := cr.Stats(); h != 0 || m != 0 {
		t.Fatal("Reset left counters")
	}
}
