// Package tensor implements the dense float32 arrays underneath the DNN
// inference engine. Tensors are row-major; a CHW image tensor has shape
// (channels, height, width). Only what inference needs is implemented —
// there is no autograd, because CoIC ships fixed pre-trained weights.
package tensor

import (
	"fmt"
	"math"

	"github.com/edge-immersion/coic/internal/xrand"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape. It panics on empty or
// non-positive dimensions: a mis-shaped tensor is a programming error, not
// a runtime condition.
func New(shape ...int) *Tensor {
	if len(shape) == 0 {
		panic("tensor: New with no dimensions")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in %v", shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data with shape. The slice is used directly (no copy);
// it panics if the element count does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	t := &Tensor{shape: append([]int(nil), shape...), Data: data}
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: %d elements cannot have shape %v", len(data), shape))
	}
	return t
}

// Shape returns the tensor's dimensions. The caller must not mutate it.
func (t *Tensor) Shape() []int { return t.shape }

// Len reports the total element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank reports the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape. It panics if
// element counts differ.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	return FromSlice(t.Data, shape...)
}

// At reads the element at the given multi-index (rank must match).
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set writes the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// RandNormal fills the tensor with normal(0, std) variates from rng.
func (t *Tensor) RandNormal(rng *xrand.RNG, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// Argmax returns the index of the largest element (first on ties) and its
// value. It panics on an empty tensor (impossible via New).
func (t *Tensor) Argmax() (int, float32) {
	best, bv := 0, t.Data[0]
	for i, v := range t.Data {
		if v > bv {
			best, bv = i, v
		}
	}
	return best, bv
}

// Dot returns the inner product of two equal-length tensors viewed as flat
// vectors.
func Dot(a, b *Tensor) float32 {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a.Data), len(b.Data)))
	}
	var s float32
	for i := range a.Data {
		s += float32(a.Data[i] * b.Data[i]) // rounded apart: no FMA on any GOARCH
	}
	return s
}

// L2Norm returns the Euclidean norm of the flat vector.
func (t *Tensor) L2Norm() float32 {
	var s float64
	for _, v := range t.Data {
		s += float64(float64(v) * float64(v))
	}
	return float32(math.Sqrt(s))
}

// Normalize scales the tensor to unit L2 norm in place. A zero tensor is
// left untouched (there is no direction to normalise).
func (t *Tensor) Normalize() {
	n := t.L2Norm()
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range t.Data {
		t.Data[i] *= inv
	}
}

// AddInPlace adds other element-wise into t.
func (t *Tensor) AddInPlace(other *Tensor) {
	if len(t.Data) != len(other.Data) {
		panic("tensor: AddInPlace length mismatch")
	}
	for i := range t.Data {
		t.Data[i] += other.Data[i]
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// EqualShape reports whether two tensors have identical shapes.
func EqualShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// MatVec computes y = W·x where W has shape (out, in) and x has length in.
// It returns a new tensor of shape (out).
func MatVec(w *Tensor, x *Tensor) *Tensor {
	if w.Rank() != 2 {
		panic("tensor: MatVec weight must be rank 2")
	}
	out, in := w.shape[0], w.shape[1]
	if x.Len() != in {
		panic(fmt.Sprintf("tensor: MatVec input %d != weight columns %d", x.Len(), in))
	}
	y := New(out)
	for o := 0; o < out; o++ {
		row := w.Data[o*in : (o+1)*in]
		var s float32
		for i, xv := range x.Data {
			s += float32(row[i] * xv)
		}
		y.Data[o] = s
	}
	return y
}
