package core

import (
	"fmt"
	"time"

	"github.com/edge-immersion/coic/internal/dnn"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/mesh"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/render"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/xrand"
)

// Client is the mobile device: it captures camera frames, extracts
// descriptors with the DNN trunk, loads and draws 3D models, and crops
// panoramas. Methods return results plus the virtual compute time they
// cost on the phone.
type Client struct {
	// ID distinguishes clients in multi-user simulations.
	ID     int
	Params Params
	// Trunk is the descriptor extractor: the full network's layers up to
	// the feature tap (shared weights with the cloud model — in a real
	// deployment the cloud distributes the trunk to devices).
	Trunk *dnn.Network
}

// NewClient builds a client whose trunk matches the cloud network for the
// same Params (identical seed → identical weights → identical
// descriptors, the invariant the cache depends on).
func NewClient(id int, p Params) *Client {
	full := dnn.NewEdgeNet(p.Classes(), p.DNNInput, p.Seed)
	return &Client{ID: id, Params: p, Trunk: full.Trunk()}
}

// CaptureFrame renders the camera input for observing `class` under the
// viewpoint drawn from viewSeed: the stand-in for pointing a phone at a
// real object.
func (c *Client) CaptureFrame(class vision.Class, viewSeed uint64) *vision.Frame {
	view := vision.RandomView(xrand.New(viewSeed))
	return vision.RenderObject(class, view, c.Params.CameraW, c.Params.CameraH)
}

// Extract runs the DNN trunk over a frame and returns the feature-vector
// descriptor plus the extraction cost — step one of the CoIC protocol.
func (c *Client) Extract(frame *vision.Frame) (feature.Descriptor, time.Duration) {
	input := vision.ToTensor(frame, c.Params.DNNInput)
	vec := c.Trunk.Features(input)
	cost := c.Params.flopsTime(c.Trunk.TrunkFLOPs(), c.Params.MobileGFLOPS)
	return feature.NewVector(vec), cost
}

// LoadModel deserialises a CMF model into memory ("the renderer has to
// load the 3D model into memory first").
func (c *Client) LoadModel(cmf []byte) (*mesh.Mesh, time.Duration, error) {
	m, err := mesh.DecodeCMF(cmf)
	if err != nil {
		return nil, 0, fmt.Errorf("core: client model load: %w", err)
	}
	return m, bytesTime(len(cmf), c.Params.ClientCMFLoadBps), nil
}

// Draw rasterises a loaded model once ("and draw objects on the
// display"). The returned stats prove real pixels were produced.
func (c *Client) Draw(m *mesh.Mesh) (render.Stats, time.Duration) {
	r := render.New(320, 320)
	st := r.Draw(m, render.Identity(), render.DefaultCamera())
	return st, c.Params.ClientDrawTime
}

// CropPano decodes an RLE panorama and crops the user's viewport from it
// ("the client crops the panorama to generate the final frame").
func (c *Client) CropPano(rle []byte, vp pano.Viewport, w, h int) (*vision.Frame, time.Duration, error) {
	frame, err := pano.DecodeRLE(rle)
	if err != nil {
		return nil, 0, fmt.Errorf("core: client pano decode: %w", err)
	}
	p := &pano.Panorama{Frame: frame}
	out := p.Crop(vp, w, h)
	return out, c.Params.ClientCropTime, nil
}
