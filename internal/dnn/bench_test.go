package dnn

import (
	"testing"

	"github.com/edge-immersion/coic/internal/tensor"
)

func benchInput(side int) *tensor.Tensor {
	in := tensor.New(3, side, side)
	in.RandNormal(newTestRNG(), 1)
	return in
}

// BenchmarkForward measures a full inference pass, trunk plus head.
func BenchmarkForward(b *testing.B) {
	n := NewEdgeNet(testClasses, 64, 1)
	in := benchInput(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(in)
	}
}

// BenchmarkTrunkFeatures measures descriptor extraction: the client's
// work on every CoIC request and the cloud's on every recognition, since
// Cloud.Recognize runs Net.Features.
func BenchmarkTrunkFeatures(b *testing.B) {
	n := NewEdgeNet(testClasses, 64, 1)
	in := benchInput(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Features(in)
	}
}

// BenchmarkConv2D measures each of EdgeNet's convolutions alone, on its
// own weights and at the input shape it sees in a 64x64 pass.
func BenchmarkConv2D(b *testing.B) {
	n := NewEdgeNet(testClasses, 64, 1)
	for i, side := range []int{64, 32, 16} { // pooling halves each block
		c := n.Layers[3*i].(*Conv2D)
		in := tensor.New(c.InC, side, side)
		in.RandNormal(newTestRNG(), 1)
		b.Run(c.LayerName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Forward(in)
			}
		})
	}
}

// BenchmarkReLU measures the clamp on conv1's output in a 64x64 pass:
// ReLU.Forward, which copies its input, and the in-place clamp a serial
// pass applies to a tensor it owns. Every iteration clamps the same
// random signs.
func BenchmarkReLU(b *testing.B) {
	in := tensor.New(16, 64, 64)
	in.RandNormal(newTestRNG(), 1)
	r := &ReLU{LayerName: "relu1"}
	b.Run("copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Forward(in)
		}
	})
	b.Run("in_place", func(b *testing.B) {
		x := in.Clone()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(x.Data, in.Data)
			b.StartTimer()
			clampNegatives(x.Data)
		}
	})
}

// BenchmarkCachedRunnerHit measures a fully-memoised pass (the A-layer
// upper bound).
func BenchmarkCachedRunnerHit(b *testing.B) {
	n := NewEdgeNet(testClasses, 64, 1)
	cr := NewCachedRunner(n, 0)
	in := benchInput(64)
	cr.Forward(in) // warm every layer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr.Forward(in)
	}
}
