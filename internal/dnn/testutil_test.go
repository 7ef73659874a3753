package dnn

import (
	"math"
	"testing"

	"github.com/edge-immersion/coic/internal/tensor"
	"github.com/edge-immersion/coic/internal/xrand"
)

// newTestRNG returns the shared deterministic RNG used across dnn tests.
func newTestRNG() *xrand.RNG { return xrand.New(12345) }

// requireBitEqual fails unless got and want have the same shape and the
// same bit pattern in every element.
func requireBitEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !tensor.EqualShape(got, want) {
		t.Fatalf("%s: shape %v != %v", label, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d: %v (bits %#x) != %v (bits %#x)",
				label, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}
