package dnn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/edge-immersion/coic/internal/tensor"
)

// refConv2D is the scalar per-output-cell convolution Conv2D.Forward is
// held to: bias, then every in-range tap in ascending (ic, ky, kx) order,
// one float32 accumulator per output cell. It is kept only as a test
// oracle, so a faster kernel must agree with it bit for bit.
func refConv2D(c *Conv2D, in *tensor.Tensor) *tensor.Tensor {
	shape := in.Shape()
	if len(shape) != 3 || shape[0] != c.InC {
		panic(fmt.Sprintf("dnn: conv %s expects (%d,H,W), got %v", c.LayerName, c.InC, shape))
	}
	inH, inW := shape[1], shape[2]
	outShape := c.OutputShape(shape)
	outH, outW := outShape[1], outShape[2]
	out := tensor.New(c.OutC, outH, outW)

	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B.Data[oc]
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*c.Stride - c.Pad
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*c.Stride - c.Pad
				sum := bias
				for ic := 0; ic < c.InC; ic++ {
					// Weight base for (oc, ic).
					wBase := ((oc*c.InC + ic) * c.Kernel) * c.Kernel
					inBase := ic * inH * inW
					for ky := 0; ky < c.Kernel; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						rowW := c.W.Data[wBase+ky*c.Kernel : wBase+(ky+1)*c.Kernel]
						rowIn := in.Data[inBase+iy*inW : inBase+(iy+1)*inW]
						for kx := 0; kx < c.Kernel; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							sum += rowW[kx] * rowIn[ix]
						}
					}
				}
				out.Data[(oc*outH+oy)*outW+ox] = sum
			}
		}
	}
	return out
}

// refConvLayer runs a Conv2D's weights through refConv2D.
type refConvLayer struct{ *Conv2D }

func (r refConvLayer) Forward(in *tensor.Tensor) *tensor.Tensor { return refConv2D(r.Conv2D, in) }

// sameBits reports the first index where a and b differ in float32 bits
// (0 when their lengths differ), or -1 when they are bit-identical, so
// -0 ≠ +0 and NaN payloads count.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestConv2DMatchesReference pins Conv2D.Forward to refConv2D bit for bit
// over channel counts that leave a remainder after blocks of four output
// channels, strides above one, paddings wider than the kernel (so some
// outputs see only padding), non-square inputs, a one-column input (so
// some taps miss it entirely) and a -0 bias. The input widths 1–9, 16,
// 17, 31 and 64 give stride-1 rows that end in every mix of the SSE
// kernel's eight-, four-, two- and one-column steps, rows too short for
// a vector step, and EdgeNet's own 64-wide rows.
func TestConv2DMatchesReference(t *testing.T) {
	rng := newTestRNG()
	negZero := math.Float32frombits(1 << 31)
	inputs := [][2]int{{7, 5}, {4, 9}, {5, 1}}
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 31, 64} {
		inputs = append(inputs, [2]int{3, w})
	}
	for _, inC := range []int{1, 3, 6} {
		for _, outC := range []int{1, 3, 4, 5, 9} {
			for _, k := range []int{1, 2, 3, 5} {
				for _, stride := range []int{1, 2, 3} {
					for _, pad := range []int{0, 1, 2, 6} {
						c := NewConv2D("c", inC, outC, k, stride, pad)
						c.W.RandNormal(rng, 1)
						c.B.RandNormal(rng, 1)
						c.B.Data[outC/2] = negZero
						for _, hw := range inputs {
							if hw[0]+2*pad < k || hw[1]+2*pad < k {
								continue
							}
							in := tensor.New(inC, hw[0], hw[1])
							in.RandNormal(rng, 1)
							got, want := c.Forward(in), refConv2D(c, in)
							if !slices.Equal(got.Shape(), want.Shape()) {
								t.Fatalf("in=%v k=%d s=%d p=%d: shape %v, want %v",
									in.Shape(), k, stride, pad, got.Shape(), want.Shape())
							}
							if i := sameBits(got.Data, want.Data); i >= 0 {
								t.Fatalf("in=%v outC=%d k=%d s=%d p=%d: out[%d] = %v, want %v",
									in.Shape(), outC, k, stride, pad, i, got.Data[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}

	// EdgeNet's own descriptor and output against the same network with
	// every conv layer swapped for the oracle.
	net := NewEdgeNet(testClasses, 64, 1)
	ref := *net
	ref.Layers = append([]Layer(nil), net.Layers...)
	for i, l := range ref.Layers {
		if c, ok := l.(*Conv2D); ok {
			ref.Layers[i] = refConvLayer{c}
		}
	}
	in := tensor.New(3, 64, 64)
	in.RandNormal(rng, 1)
	if i := sameBits(net.Features(in), ref.Features(in)); i >= 0 {
		t.Fatalf("EdgeNet Features differs from the reference trunk at %d", i)
	}
	if i := sameBits(net.Forward(in).Data, ref.Forward(in).Data); i >= 0 {
		t.Fatalf("EdgeNet Forward differs from the reference network at %d", i)
	}
}

// TestAddTap4SpanOutsideSlicePanics checks that a stride-1 tap span
// reaching past any of its slices panics before the kernel runs, whether
// its last row, its last column or its input falls outside, and that an
// empty span touches nothing.
func TestAddTap4SpanOutsideSlicePanics(t *testing.T) {
	const outW, inW, plane = 8, 8, 64
	ok := tapSpan{outW: outW, inW: inW, stride: 1, y0: 0, y1: 8, x0: 0, x1: 8}
	run := func(g tapSpan, srcLen int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		d := make([]float32, 4*plane)
		addTap4(d[:plane], d[plane:2*plane], d[2*plane:3*plane], d[3*plane:], 1, 2, 3, 4,
			make([]float32, srcLen), g)
		return false
	}
	if run(ok, inW*inW) {
		t.Fatal("an in-range span panicked")
	}
	lastRow, lastCol := ok, ok
	lastRow.y1++
	lastCol.x1++
	for name, c := range map[string]struct {
		g      tapSpan
		srcLen int
	}{
		"last row":    {lastRow, inW*inW + inW},
		"last column": {lastCol, inW*inW + inW},
		"input":       {ok, inW*inW - 1},
	} {
		if !run(c.g, c.srcLen) {
			t.Errorf("a span whose %s falls outside its slice did not panic", name)
		}
	}

	empty := ok
	empty.x1 = empty.x0
	d, src := make([]float32, plane), make([]float32, inW*inW)
	for i := range src {
		src[i] = 1
	}
	addTap4(d, d, d, d, 1, 1, 1, 1, src, empty)
	for i, v := range d {
		if v != 0 {
			t.Fatalf("a zero-column span wrote %v to cell %d", v, i)
		}
	}
}
