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

// BenchmarkForward measures a full inference pass (the cloud's work).
func BenchmarkForward(b *testing.B) {
	n := NewEdgeNet(testClasses, 64, 1)
	in := benchInput(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(in)
	}
}

// BenchmarkTrunkFeatures measures descriptor extraction (the client's
// work on every CoIC request).
func BenchmarkTrunkFeatures(b *testing.B) {
	n := NewEdgeNet(testClasses, 64, 1)
	in := benchInput(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Features(in)
	}
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
