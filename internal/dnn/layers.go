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
	// Forward computes the layer output for one input tensor.
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

// Forward implements Layer with a direct (im2col-free) convolution.
func (c *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
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

// ReLU applies max(0, x) element-wise.
type ReLU struct{ LayerName string }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// OutputShape implements Layer (identity).
func (r *ReLU) OutputShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer: one compare per element.
func (r *ReLU) FLOPs(in []int) int64 { return prod(in) }

// Forward implements Layer.
func (r *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
		}
	}
	return out
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
