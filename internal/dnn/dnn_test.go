package dnn

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

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

func TestSerialRoundTrip(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 7)
	data, err := EncodeBytes(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NetName != n.NetName || got.FeatureLayer != n.FeatureLayer || len(got.Classes) != len(n.Classes) {
		t.Fatal("metadata did not round-trip")
	}
	in := tensor.New(3, 32, 32)
	in.RandNormal(newTestRNG(), 1)
	a, b := n.Forward(in), got.Forward(in)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("decoded network computes different outputs")
		}
	}
}

func TestSerialDeterministic(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 7)
	a, _ := EncodeBytes(n)
	b, _ := EncodeBytes(n)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	n := NewEdgeNet(testClasses, 32, 7)
	data, _ := EncodeBytes(n)

	// Flip one byte in the middle: CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("bit flip not detected")
	}

	// Truncations at every interesting boundary must error, not panic.
	for _, cut := range []int{0, 3, 7, 20, len(data) / 2, len(data) - 1} {
		if _, err := DecodeBytes(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Wrong magic.
	bad = append([]byte(nil), data...)
	copy(bad, "NOPE")
	if _, err := DecodeBytes(bad); err == nil {
		t.Fatal("bad magic accepted")
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

func TestDecodeBytesFuzzNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeBytes(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
