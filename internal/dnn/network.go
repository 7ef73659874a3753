package dnn

import (
	"fmt"
	"math"

	"github.com/edge-immersion/coic/internal/tensor"
	"github.com/edge-immersion/coic/internal/xrand"
)

// Network is an ordered stack of layers with a designated feature tap: the
// layer whose output is used as the CoIC feature descriptor. In the paper
// the client "pre-processes the request to generate ... a feature
// descriptor of user's input"; here that means running layers
// [0..FeatureLayer] — the trunk — on the device, while the cloud runs all
// layers to produce a classification.
type Network struct {
	// NetName identifies the model in errors.
	NetName string
	// InputShape is the expected CHW input, e.g. (3, 64, 64).
	InputShape []int
	// Layers run in order.
	Layers []Layer
	// FeatureLayer is the index of the layer whose output is the
	// descriptor (-1 when the network has no feature tap).
	FeatureLayer int
	// Classes names the output classes; len(Classes) must match the
	// final layer width.
	Classes []string
}

// Forward runs the full network on input and returns the final output.
func (n *Network) Forward(in *tensor.Tensor) *tensor.Tensor {
	x := in
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Features runs the trunk (layers up to and including FeatureLayer) and
// returns the mean-centred, L2-normalised feature vector. Centring
// matters: ReLU activations are non-negative, so uncentred descriptors
// crowd into one orthant and lose angular separation between classes;
// subtracting the per-vector mean restores it. This is the client-side
// descriptor extraction step of the CoIC protocol.
func (n *Network) Features(in *tensor.Tensor) []float32 {
	if n.FeatureLayer < 0 || n.FeatureLayer >= len(n.Layers) {
		panic(fmt.Sprintf("dnn: network %s has no feature layer", n.NetName))
	}
	x := in
	for i := 0; i <= n.FeatureLayer; i++ {
		x = n.Layers[i].Forward(x)
	}
	return featureVector(x)
}

// featureVector post-processes a feature-layer activation into the
// descriptor: mean-centred, L2-normalised, copied out of the activation.
func featureVector(x *tensor.Tensor) []float32 {
	v := x.Clone()
	var mean float32
	for _, f := range v.Data {
		mean += f
	}
	mean /= float32(len(v.Data))
	for i := range v.Data {
		v.Data[i] -= mean
	}
	v.Normalize()
	return v.Data
}

// TrunkFLOPs reports the cost of descriptor extraction (layers up to and
// including the feature layer) for the network's input shape.
func (n *Network) TrunkFLOPs() int64 {
	return n.flopsUpTo(n.FeatureLayer)
}

// TotalFLOPs reports the cost of a full forward pass.
func (n *Network) TotalFLOPs() int64 {
	return n.flopsUpTo(len(n.Layers) - 1)
}

func (n *Network) flopsUpTo(last int) int64 {
	shape := n.InputShape
	var total int64
	for i := 0; i <= last && i < len(n.Layers); i++ {
		total += n.Layers[i].FLOPs(shape)
		shape = n.Layers[i].OutputShape(shape)
	}
	return total
}

// FeatureDim reports the length of the descriptor vector.
func (n *Network) FeatureDim() int {
	shape := n.InputShape
	for i := 0; i <= n.FeatureLayer; i++ {
		shape = n.Layers[i].OutputShape(shape)
	}
	d := 1
	for _, s := range shape {
		d *= s
	}
	return d
}

// Validate checks internal consistency: layer shapes chain, the feature
// tap exists, and the class list matches the head width. Returns an error
// rather than panicking; NewEdgeNet treats one as a construction bug.
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("dnn: network %q has no layers", n.NetName)
	}
	if len(n.InputShape) != 3 {
		return fmt.Errorf("dnn: network %q input shape %v is not CHW", n.NetName, n.InputShape)
	}
	if n.FeatureLayer < -1 || n.FeatureLayer >= len(n.Layers) {
		return fmt.Errorf("dnn: network %q feature layer %d out of range", n.NetName, n.FeatureLayer)
	}
	seen := map[string]bool{}
	shape := n.InputShape
	for i, l := range n.Layers {
		if seen[l.Name()] {
			return fmt.Errorf("dnn: duplicate layer name %q", l.Name())
		}
		seen[l.Name()] = true
		next := l.OutputShape(shape)
		for _, d := range next {
			if d <= 0 {
				return fmt.Errorf("dnn: layer %d (%s) collapses shape %v to %v", i, l.Name(), shape, next)
			}
		}
		shape = next
	}
	if len(n.Classes) > 0 {
		width := 1
		for _, d := range shape {
			width *= d
		}
		if width != len(n.Classes) {
			return fmt.Errorf("dnn: %d classes but head width %d", len(n.Classes), width)
		}
	}
	return nil
}

// Trunk returns a view of the network truncated at the feature layer: the
// model a CoIC mobile client ships. Layers are shared, not copied — the
// trunk is a cheap façade over the same weights.
func (n *Network) Trunk() *Network {
	return &Network{
		NetName:      n.NetName + "-trunk",
		InputShape:   n.InputShape,
		Layers:       n.Layers[:n.FeatureLayer+1],
		FeatureLayer: n.FeatureLayer,
	}
}

// NewEdgeNet builds the reference CoIC recognition network ("EdgeNet"):
// three conv/relu blocks with pooling, a global-average-pool feature tap
// (the 64-d descriptor), and a classification head. Weights are
// He-initialised from a deterministic stream, so every process builds
// bit-identical models — the property that lets client descriptors match
// cloud-side cache keys. The GAP tap makes descriptors stable under the
// viewpoint changes two co-located users experience while their
// class-discriminating colour/texture statistics stay apart (verified by
// the A-threshold ablation).
func NewEdgeNet(classes []string, inputSize int, seed uint64) *Network {
	rng := xrand.New(seed)
	conv := func(name string, inC, outC int) *Conv2D {
		c := NewConv2D(name, inC, outC, 3, 1, 1)
		fanIn := float64(inC * 3 * 3)
		c.W.RandNormal(rng.Fork(name+"/w"), sqrt(2/fanIn))
		return c
	}
	dense := func(name string, in, out int) *Dense {
		d := NewDense(name, in, out)
		d.W.RandNormal(rng.Fork(name+"/w"), sqrt(2/float64(in)))
		return d
	}
	n := &Network{
		NetName:    "edgenet",
		InputShape: []int{3, inputSize, inputSize},
		Layers: []Layer{
			conv("conv1", 3, 16),
			&ReLU{LayerName: "relu1"},
			NewMaxPool2D("pool1", 2, 2),
			conv("conv2", 16, 32),
			&ReLU{LayerName: "relu2"},
			NewMaxPool2D("pool2", 2, 2),
			conv("conv3", 32, 64),
			&ReLU{LayerName: "relu3"},
			&GlobalAvgPool{LayerName: "gap"},
			dense("fc1", 64, 64),
			&ReLU{LayerName: "relu4"},
			dense("fc2", 64, len(classes)),
			&Softmax{LayerName: "softmax"},
		},
		FeatureLayer: 8, // output of gap: the 64-d descriptor
		Classes:      append([]string(nil), classes...),
	}
	if err := n.Validate(); err != nil {
		panic(err) // construction bug, not a runtime condition
	}
	return n
}

func sqrt(x float64) float64 { return math.Sqrt(x) }
