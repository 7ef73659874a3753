// Package dnn is a from-scratch convolutional neural network inference
// engine. It plays the role of the recognition DNN in the CoIC paper: the
// mobile client runs the trunk of the network to produce a feature-vector
// descriptor, and the cloud runs the full network to produce a label. The
// engine is inference-only with deterministic seeded weights, so the same
// input always yields the same descriptor — the property the edge cache
// keys on.
//
// The paper's "future work" — reusing the result of a specific DNN layer —
// is implemented by CachedRunner in this package.
package dnn

import (
	"fmt"

	"github.com/edge-immersion/coic/internal/tensor"
)

// Layer is one stage of a feed-forward network.
type Layer interface {
	// Name identifies the layer within its network (unique per network).
	Name() string
	// Forward computes the layer output for one input tensor. It leaves
	// in unchanged and returns a new tensor that it keeps no reference
	// to, so the caller may modify it.
	Forward(in *tensor.Tensor) *tensor.Tensor
	// OutputShape reports the output shape for a given input shape
	// without running the layer.
	OutputShape(in []int) []int
	// FLOPs estimates the floating-point operations needed for one
	// forward pass over the given input shape. The CoIC cost model
	// converts this to device-specific virtual compute time.
	FLOPs(in []int) int64
}

// Conv2D is a 2-D convolution over CHW tensors with square kernels.
type Conv2D struct {
	LayerName string
	InC, OutC int
	Kernel    int
	Stride    int
	Pad       int
	W         *tensor.Tensor // shape (OutC, InC, Kernel, Kernel)
	B         *tensor.Tensor // shape (OutC)
}

// NewConv2D allocates a convolution layer with zero weights.
func NewConv2D(name string, inC, outC, kernel, stride, pad int) *Conv2D {
	if stride <= 0 || kernel <= 0 {
		panic("dnn: conv kernel and stride must be positive")
	}
	return &Conv2D{
		LayerName: name, InC: inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad,
		W: tensor.New(outC, inC, kernel, kernel),
		B: tensor.New(outC),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// OutputShape implements Layer for CHW inputs.
func (c *Conv2D) OutputShape(in []int) []int {
	h := (in[1]+2*c.Pad-c.Kernel)/c.Stride + 1
	w := (in[2]+2*c.Pad-c.Kernel)/c.Stride + 1
	return []int{c.OutC, h, w}
}

// FLOPs implements Layer: 2 ops (mul+add) per kernel tap per output cell.
func (c *Conv2D) FLOPs(in []int) int64 {
	out := c.OutputShape(in)
	return int64(out[0]) * int64(out[1]) * int64(out[2]) *
		int64(c.InC) * int64(c.Kernel) * int64(c.Kernel) * 2
}

// Forward implements Layer with a direct (im2col-free) convolution that
// accumulates whole output rows per kernel tap, four output channels at a
// time so each input row is read once per block.
//
// The summation order is part of the contract: every output cell starts
// at its bias and then adds its taps in ascending (ic, ky, kx) order
// through one float32 value, skipping taps that fall in the padding
// rather than multiplying them by zero (-0 + +0 is +0). The result is
// therefore bit-identical to the naive per-cell loop kept as a test
// oracle. It runs on the calling goroutine only: no fan-out, so
// concurrent requests keep one core each.
//
// On amd64 a stride-1 tap over four output channels, which is every tap
// EdgeNet runs, is SSE assembly (tapRows4). Its four lanes are four
// adjacent output cells of one row, so each lane does exactly the scalar
// loop's work for its cell: one rounded multiply, then one rounded add,
// in the same tap order. It uses no fused multiply-add, which rounds once
// where the scalar loop rounds twice and so would change the bits, and no
// AVX, so the one path runs on every amd64 CPU without a feature check.
func (c *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	shape := in.Shape()
	if len(shape) != 3 || shape[0] != c.InC {
		panic(fmt.Sprintf("dnn: conv %s expects (%d,H,W), got %v", c.LayerName, c.InC, shape))
	}
	inH, inW := shape[1], shape[2]
	outShape := c.OutputShape(shape)
	outH, outW := outShape[1], outShape[2]
	out := tensor.New(c.OutC, outH, outW)
	k, s := c.Kernel, c.Stride
	plane, inPlane, wStep := outH*outW, inH*inW, c.InC*k*k

	for oc, b := range c.B.Data[:c.OutC] {
		dst := out.Data[oc*plane : (oc+1)*plane]
		for i := range dst {
			dst[i] = b
		}
	}
	rows := tapRanges(outH, inH, k, s, c.Pad)
	cols := tapRanges(outW, inW, k, s, c.Pad)
	for oc := 0; oc < c.OutC; {
		n := 4
		if c.OutC-oc < 4 {
			n = 1
		}
		o := out.Data[oc*plane:]
		for ic := 0; ic < c.InC; ic++ {
			src := in.Data[ic*inPlane : (ic+1)*inPlane]
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					if cols[kx][0] == cols[kx][1] {
						continue // this tap reads only padding
					}
					g := tapSpan{
						outW: outW, inW: inW, stride: s,
						y0: rows[ky][0], y1: rows[ky][1], x0: cols[kx][0], x1: cols[kx][1],
						off: (ky-c.Pad)*inW + kx - c.Pad,
					}
					wi := ((oc*c.InC+ic)*k+ky)*k + kx
					if n == 1 {
						addTap(o[:plane], c.W.Data[wi], src, g)
						continue
					}
					addTap4(o[:plane], o[plane:2*plane], o[2*plane:3*plane], o[3*plane:4*plane],
						c.W.Data[wi], c.W.Data[wi+wStep], c.W.Data[wi+2*wStep], c.W.Data[wi+3*wStep],
						src, g)
				}
			}
		}
		oc += n
	}
	return out
}

// tapSpan is where one kernel tap lands: output rows [y0, y1) and
// columns [x0, x1) read input index oy*stride*inW + ox*stride + off.
type tapSpan struct {
	outW, inW, stride int
	y0, y1, x0, x1    int
	off               int
}

// addTap adds w times each input value the tap reads to its output cell.
func addTap(dst []float32, w float32, src []float32, g tapSpan) {
	n := g.x1 - g.x0
	for oy := g.y0; oy < g.y1; oy++ {
		d := dst[oy*g.outW+g.x0:][:n]
		x := src[oy*g.stride*g.inW+g.x0*g.stride+g.off:]
		if g.stride == 1 {
			x = x[:n]
			for i, v := range x {
				d[i] += float32(w * v)
			}
			continue
		}
		for i := range d {
			d[i] += float32(w * x[i*g.stride])
		}
	}
}

// addTap4 is addTap for four output planes sharing one input plane. The
// stride-1 case, which is every tap EdgeNet runs, goes to addRows4.
func addTap4(d0, d1, d2, d3 []float32, w0, w1, w2, w3 float32, src []float32, g tapSpan) {
	if g.stride == 1 {
		addRows4(d0, d1, d2, d3, w0, w1, w2, w3, src, g)
		return
	}
	n := g.x1 - g.x0
	for oy := g.y0; oy < g.y1; oy++ {
		at := oy*g.outW + g.x0
		r0, r1, r2, r3 := d0[at:][:n], d1[at:][:n], d2[at:][:n], d3[at:][:n]
		x := src[oy*g.stride*g.inW+g.x0*g.stride+g.off:]
		for i := range r0 {
			v := x[i*g.stride]
			r0[i] += float32(w0 * v)
			r1[i] += float32(w1 * v)
			r2[i] += float32(w2 * v)
			r3[i] += float32(w3 * v)
		}
	}
}

// tapRanges returns, for each kernel tap t, the output indices [lo, hi)
// along one axis whose input index o*stride-pad+t lies inside [0, inN).
func tapRanges(outN, inN, kernel, stride, pad int) [][2]int {
	r := make([][2]int, kernel)
	for t := range r {
		lo, hi := 0, 0
		if d := pad - t; d > 0 {
			lo = (d + stride - 1) / stride
		}
		if d := inN - 1 + pad - t; d >= 0 {
			hi = min(outN, d/stride+1)
		}
		r[t] = [2]int{lo, max(lo, hi)}
	}
	return r
}

// ReLU applies max(0, x) element-wise.
type ReLU struct{ LayerName string }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// OutputShape implements Layer (identity).
func (r *ReLU) OutputShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer: one compare per element.
func (r *ReLU) FLOPs(in []int) int64 { return prod(in) }

// Forward implements Layer on a copy: in is left unchanged.
func (r *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	clampNegatives(out.Data)
	return out
}

// clampNegatives sets every negative value to zero in place. It is not
// max(v, 0), which would turn -0 into +0.
func clampNegatives(d []float32) {
	for i, v := range d {
		if v < 0 {
			d[i] = 0
		}
	}
}

// MaxPool2D is a max-pooling layer over CHW tensors.
type MaxPool2D struct {
	LayerName string
	Kernel    int
	Stride    int
}

// NewMaxPool2D builds a pooling layer; kernel and stride must be positive.
func NewMaxPool2D(name string, kernel, stride int) *MaxPool2D {
	if kernel <= 0 || stride <= 0 {
		panic("dnn: pool kernel and stride must be positive")
	}
	return &MaxPool2D{LayerName: name, Kernel: kernel, Stride: stride}
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.LayerName }

// OutputShape implements Layer.
func (p *MaxPool2D) OutputShape(in []int) []int {
	return []int{in[0], (in[1]-p.Kernel)/p.Stride + 1, (in[2]-p.Kernel)/p.Stride + 1}
}

// FLOPs implements Layer: one compare per kernel tap per output cell.
func (p *MaxPool2D) FLOPs(in []int) int64 {
	out := p.OutputShape(in)
	return prod(out) * int64(p.Kernel) * int64(p.Kernel)
}

// Forward implements Layer.
func (p *MaxPool2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	shape := in.Shape()
	c, inH, inW := shape[0], shape[1], shape[2]
	outShape := p.OutputShape(shape)
	outH, outW := outShape[1], outShape[2]
	out := tensor.New(c, outH, outW)
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(-3.4e38)
				for ky := 0; ky < p.Kernel; ky++ {
					iy := oy*p.Stride + ky
					for kx := 0; kx < p.Kernel; kx++ {
						ix := ox*p.Stride + kx
						v := in.Data[(ch*inH+iy)*inW+ix]
						if v > best {
							best = v
						}
					}
				}
				out.Data[(ch*outH+oy)*outW+ox] = best
			}
		}
	}
	return out
}

// Flatten reshapes any tensor to rank 1.
type Flatten struct{ LayerName string }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

// OutputShape implements Layer.
func (f *Flatten) OutputShape(in []int) []int { return []int{int(prod(in))} }

// FLOPs implements Layer (free: it is a view).
func (f *Flatten) FLOPs(in []int) int64 { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(in *tensor.Tensor) *tensor.Tensor {
	return in.Clone().Reshape(in.Len())
}

// GlobalAvgPool averages each channel plane of a CHW tensor to a single
// value, producing a C-vector. As a feature tap it is what makes the CoIC
// descriptor robust to the viewpoint changes the paper's motivation
// depends on: rotation, parallax and sensor noise move activations around
// spatially but barely change their per-channel means.
type GlobalAvgPool struct{ LayerName string }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.LayerName }

// OutputShape implements Layer.
func (g *GlobalAvgPool) OutputShape(in []int) []int { return []int{in[0]} }

// FLOPs implements Layer: one add per element.
func (g *GlobalAvgPool) FLOPs(in []int) int64 { return prod(in) }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(in *tensor.Tensor) *tensor.Tensor {
	shape := in.Shape()
	if len(shape) != 3 {
		panic(fmt.Sprintf("dnn: gap %s expects CHW, got %v", g.LayerName, shape))
	}
	c, plane := shape[0], shape[1]*shape[2]
	out := tensor.New(c)
	for ch := 0; ch < c; ch++ {
		var s float32
		for i := ch * plane; i < (ch+1)*plane; i++ {
			s += in.Data[i]
		}
		out.Data[ch] = s / float32(plane)
	}
	return out
}

// Dense is a fully connected layer y = Wx + b.
type Dense struct {
	LayerName string
	In, Out   int
	W         *tensor.Tensor // shape (Out, In)
	B         *tensor.Tensor // shape (Out)
}

// NewDense allocates a fully connected layer with zero weights.
func NewDense(name string, in, out int) *Dense {
	return &Dense{LayerName: name, In: in, Out: out, W: tensor.New(out, in), B: tensor.New(out)}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// OutputShape implements Layer.
func (d *Dense) OutputShape(in []int) []int { return []int{d.Out} }

// FLOPs implements Layer.
func (d *Dense) FLOPs(in []int) int64 { return int64(d.In) * int64(d.Out) * 2 }

// Forward implements Layer.
func (d *Dense) Forward(in *tensor.Tensor) *tensor.Tensor {
	if in.Len() != d.In {
		panic(fmt.Sprintf("dnn: dense %s expects %d inputs, got %d", d.LayerName, d.In, in.Len()))
	}
	y := tensor.MatVec(d.W, in.Reshape(in.Len()))
	y.AddInPlace(d.B)
	return y
}

// Softmax converts logits to a probability distribution.
type Softmax struct{ LayerName string }

// Name implements Layer.
func (s *Softmax) Name() string { return s.LayerName }

// OutputShape implements Layer (identity).
func (s *Softmax) OutputShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer: ~4 ops per element (max, sub, exp, div).
func (s *Softmax) FLOPs(in []int) int64 { return prod(in) * 4 }

// Forward implements Layer with the usual max-subtraction for stability.
func (s *Softmax) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	maxv := out.Data[0]
	for _, v := range out.Data {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for i, v := range out.Data {
		e := exp32(v - maxv)
		out.Data[i] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out.Data {
			out.Data[i] *= inv
		}
	}
	return out
}

func prod(shape []int) int64 {
	p := int64(1)
	for _, d := range shape {
		p *= int64(d)
	}
	return p
}
