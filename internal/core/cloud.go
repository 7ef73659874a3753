package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/dnn"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/mesh"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/tensor"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
	"github.com/edge-immersion/coic/internal/xrand"
)

// Fig2bModelKB lists the 3D model sizes (KB) of the paper's Figure 2b.
var Fig2bModelKB = []int{231, 1073, 1949, 7050, 13072, 15053}

// AnnotationModelKB sizes the per-class AR annotation models served after
// recognition (small high-quality overlays).
const AnnotationModelKB = 231

// Cloud is the cloud computing platform: it owns the full recognition
// DNN, the 3D model repository (OBJX sources) and the VR video source.
// All methods are safe for concurrent use and return both the result and
// the virtual compute time the operation costs on the cloud's hardware.
type Cloud struct {
	Params Params
	Net    *dnn.Network

	// centroids holds one reference descriptor per class, the mean of
	// several canonical-ish viewpoints. Classification is
	// nearest-centroid in descriptor space: with fixed random conv
	// weights the raw softmax head would assign arbitrary labels, while
	// centroids give the correct, deterministic labels the AR
	// application needs.
	centroids [][]float32

	mu     sync.Mutex
	models map[string]*modelEntry
}

type modelEntry struct {
	// spec defers generation: the repository registers every model at
	// startup but only materialises the ones an experiment touches.
	spec mesh.Spec
	objx []byte
	// cmf memoises the parsed runtime form so repeated origin requests
	// do not re-parse for real each time (the *virtual* parse cost is
	// still charged per request — the paper's origin pays the load every
	// time).
	cmf []byte
}

// NewCloud builds the cloud: recognition network plus a model repository
// holding one annotation model per recognisable class and the Figure 2b
// size ladder.
func NewCloud(p Params) *Cloud {
	c := &Cloud{
		Params: p,
		Net:    dnn.NewEdgeNet(p.Classes(), p.DNNInput, p.Seed),
		models: map[string]*modelEntry{},
	}
	c.buildCentroids()
	for i, name := range p.Classes() {
		id := AnnotationModelID(name)
		c.addModel(id, AnnotationModelKB*1024, p.Seed+uint64(1000+i))
	}
	for _, kb := range Fig2bModelKB {
		c.addModel(Fig2bModelID(kb), kb*1024, p.Seed+uint64(kb))
	}
	return c
}

// AnnotationModelID names the AR overlay model for a class label.
func AnnotationModelID(class string) string { return "annotation/" + class }

// Fig2bModelID names a Figure 2b ladder model.
func Fig2bModelID(kb int) string { return fmt.Sprintf("scene/%dkb", kb) }

func (c *Cloud) addModel(id string, targetBytes int, seed uint64) {
	spec := mesh.SpecForTargetSize(id, targetBytes, seed)
	c.mu.Lock()
	c.models[id] = &modelEntry{spec: spec}
	c.mu.Unlock()
}

// objxOf materialises (and memoises) a model's OBJX source.
func (c *Cloud) objxOf(entry *modelEntry) []byte {
	c.mu.Lock()
	objx := entry.objx
	c.mu.Unlock()
	if objx != nil {
		return objx
	}
	m := mesh.Generate(entry.spec)
	objx, err := mesh.EncodeOBJX(m)
	if err != nil {
		panic(err) // deterministic generator output must encode
	}
	c.mu.Lock()
	entry.objx = objx
	c.mu.Unlock()
	return objx
}

// AnnotationModelIDs lists the per-class AR annotation models (the small
// overlays traces use for render tasks).
func (c *Cloud) AnnotationModelIDs() []string {
	ids := make([]string, 0, len(c.Params.Classes()))
	for _, name := range c.Params.Classes() {
		ids = append(ids, AnnotationModelID(name))
	}
	return ids
}

// ModelIDs lists the repository contents in sorted order.
func (c *Cloud) ModelIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.models))
	for id := range c.models {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// buildCentroids derives the per-class reference descriptors from a few
// deterministic training views each.
func (c *Cloud) buildCentroids() {
	classes := c.Params.Classes()
	c.centroids = make([][]float32, len(classes))
	const views = 4
	for ci := range classes {
		sum := make([]float32, c.Net.FeatureDim())
		for v := 0; v < views; v++ {
			view := vision.RandomView(xrand.New(c.Params.Seed ^ uint64(ci*131+v)))
			frame := vision.RenderObject(vision.Class(ci), view, 2*c.Params.DNNInput, 2*c.Params.DNNInput)
			f := c.Net.Features(vision.ToTensor(frame, c.Params.DNNInput))
			for i, x := range f {
				sum[i] += x
			}
		}
		cen := feature.NewVector(sum) // normalises the mean direction
		c.centroids[ci] = cen.Vec
	}
}

// Recognize executes the full recognition task on a raw RGBA camera
// frame: the real DNN trunk runs on an input sampled straight out of
// payload (vision.FromBytes is a view, not a copy) and the nearest class
// centroid decides the label. The result is serialised exactly as it
// will be cached. Returns the result bytes and the virtual compute cost.
func (c *Cloud) Recognize(payload []byte) ([]byte, time.Duration, error) {
	frame, err := vision.FromBytes(c.Params.CameraW, c.Params.CameraH, payload)
	if err != nil {
		return nil, 0, fmt.Errorf("core: cloud recognize: %w", err)
	}
	input := vision.ToTensor(frame, c.Params.DNNInput)
	f := c.Net.Features(input)
	idx, conf := c.classify(f)
	label := c.Params.Classes()[idx]
	res := wire.RecognitionResult{
		ClassIndex:        int32(idx),
		Label:             label,
		Confidence:        conf,
		AnnotationModelID: AnnotationModelID(label),
	}
	body, err := res.Marshal()
	if err != nil {
		return nil, 0, err
	}
	cost := c.Params.flopsTime(c.Net.TotalFLOPs(), c.Params.CloudGFLOPS)
	return body, cost, nil
}

// RecognizeBatch executes recognition over a batch of raw frames in one
// batched trunk pass (dnn.FeaturesBatch): bit-identical frames share
// trunk passes, distinct frames run the trunk independently. Each
// result is byte-identical to a serial Recognize of that payload; errs
// is per-payload (one bad frame never fails its batchmates). The virtual
// compute cost charges one full pass per *unique* payload — the batch
// savings the serving stack actually sees.
func (c *Cloud) RecognizeBatch(payloads [][]byte) (results [][]byte, errs []error, cost time.Duration) {
	results = make([][]byte, len(payloads))
	errs = make([]error, len(payloads))
	inputs := make([]*tensor.Tensor, 0, len(payloads))
	members := make([]int, 0, len(payloads))
	unique := 0
	for i, payload := range payloads {
		frame, err := vision.FromBytes(c.Params.CameraW, c.Params.CameraH, payload)
		if err != nil {
			errs[i] = fmt.Errorf("core: cloud recognize: %w", err)
			continue
		}
		inputs = append(inputs, vision.ToTensor(frame, c.Params.DNNInput))
		// A batch holds a few frames: comparing against the earlier
		// members beats copying each 2 MB payload into a map key.
		if !slices.ContainsFunc(members, func(k int) bool { return bytes.Equal(payloads[k], payload) }) {
			unique++
		}
		members = append(members, i)
	}
	if len(inputs) == 0 {
		return results, errs, 0
	}
	feats := c.Net.FeaturesBatch(inputs)
	for fi, i := range members {
		idx, conf := c.classify(feats[fi])
		label := c.Params.Classes()[idx]
		body, err := (wire.RecognitionResult{
			ClassIndex:        int32(idx),
			Label:             label,
			Confidence:        conf,
			AnnotationModelID: AnnotationModelID(label),
		}).Marshal()
		if err != nil {
			errs[i] = err
			continue
		}
		results[i] = body
	}
	cost = time.Duration(unique) * c.Params.flopsTime(c.Net.TotalFLOPs(), c.Params.CloudGFLOPS)
	return results, errs, cost
}

// classify returns the nearest centroid and a softmax-over-similarity
// confidence.
func (c *Cloud) classify(f []float32) (int, float32) {
	best, bestDist := 0, math.MaxFloat64
	var expSum, expBest float64
	for i, cen := range c.centroids {
		d := feature.L2Distance(f, cen)
		e := math.Exp(-d * d / 0.02)
		expSum += e
		if d < bestDist {
			best, bestDist = i, d
			expBest = e
		}
	}
	if expSum == 0 {
		return best, 0
	}
	return best, float32(expBest / expSum)
}

// FetchModel loads a model from the repository: parse the OBJX source
// (the real parser runs; the result is memoised) and return the runtime
// CMF bytes. The virtual cost charges the full parse every call — the
// origin baseline re-loads per request, which is exactly the waste CoIC's
// edge cache removes.
func (c *Cloud) FetchModel(id string) ([]byte, time.Duration, error) {
	c.mu.Lock()
	entry, ok := c.models[id]
	c.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("core: unknown model %q", id)
	}
	objx := c.objxOf(entry)
	cost := bytesTime(len(objx), c.Params.CloudOBJXParseBps)
	c.mu.Lock()
	cmf := entry.cmf
	c.mu.Unlock()
	if cmf == nil {
		m, err := mesh.DecodeOBJX(objx)
		if err != nil {
			return nil, 0, fmt.Errorf("core: repository OBJX for %q corrupt: %w", id, err)
		}
		cmf, err = mesh.EncodeCMF(m)
		if err != nil {
			return nil, 0, err
		}
		c.mu.Lock()
		entry.cmf = cmf
		c.mu.Unlock()
	}
	return cmf, cost, nil
}

// ModelSizes reports the OBJX and CMF byte sizes of a repository model
// (generating and parsing if needed); experiments use them for table
// columns.
func (c *Cloud) ModelSizes(id string) (objx, cmf int, err error) {
	data, _, err := c.FetchModel(id)
	if err != nil {
		return 0, 0, err
	}
	c.mu.Lock()
	entry := c.models[id]
	c.mu.Unlock()
	return len(c.objxOf(entry)), len(data), nil
}

// FetchPano renders one panoramic frame of a VR video and returns its
// RLE encoding plus the virtual render cost.
func (c *Cloud) FetchPano(videoID string, frameIdx int) ([]byte, time.Duration, error) {
	if frameIdx < 0 {
		return nil, 0, fmt.Errorf("core: negative pano frame %d", frameIdx)
	}
	p := pano.Synthesize(videoID, frameIdx, c.Params.PanoWidth)
	data := pano.EncodeRLE(p.Frame)
	cost := c.Params.CloudPanoRenderTime
	return data, cost, nil
}
