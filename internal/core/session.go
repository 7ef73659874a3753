package core

import (
	"context"
	"fmt"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// Session binds one client to an edge and cloud over a simulated
// topology and executes IC requests in virtual time. Message sizes are
// the true wire encodings; compute costs come from Params; transfer times
// come from the topology's links (with FIFO queueing, so concurrent
// sessions over the same links contend).
type Session struct {
	Client *Client
	Edge   *Edge
	Cloud  *Cloud
	Topo   *netsim.Topology

	reqID uint64
}

// NewSession wires the three tiers together.
func NewSession(client *Client, edge *Edge, cloud *Cloud, topo *netsim.Topology) *Session {
	return &Session{Client: client, Edge: edge, Cloud: cloud, Topo: topo}
}

func (s *Session) nextID() uint64 {
	s.reqID++
	return s.reqID
}

// originDescriptor is attached to origin-mode requests, which carry no
// meaningful descriptor (the baseline extracts nothing); the edge never
// looks at it.
var originDescriptor = feature.NewHash([]byte("origin"))

// fetch carries one request from the client to the edge and its result
// back, in virtual time — the counterpart of EdgeServer.cacheOrFetch,
// stage for stage. body is the marshalled request of frame type reqType,
// desc its cache descriptor, and compute the cloud's work for it. b
// (whose Task and Mode are set) accumulates the breakdown from instant t;
// fetch returns the result payload and the instant the reply reaches the
// client. A ctx that expires before the cloud round trip abandons the
// request instead of paying for work nobody will read.
func (s *Session) fetch(ctx context.Context, b *Breakdown, t time.Time, reqType wire.MsgType, desc feature.Descriptor, body []byte, compute func() ([]byte, time.Duration, error)) ([]byte, time.Time, error) {
	k := &taskKinds[reqType]
	replySize := func(source uint8, payload []byte) int {
		return k.replyWith(0, source, payload).WireSize()
	}
	upSize := (wire.Message{Type: reqType, RequestID: s.nextID(), Body: body}).WireSize()
	b.BytesUp = upSize

	tEdge := s.Topo.MobileEdge.Up.Transfer(t, upSize)
	b.UpME = tEdge.Sub(t)
	t = tEdge

	var payload []byte
	source := wire.SourceCloud
	if b.Mode == ModeCoIC {
		lr := s.Edge.LookupAtAs(ctx, s.Client.ID, b.Task, desc, t)
		b.EdgeProc += lr.Cost - lr.PeerCost
		b.PeerHop += lr.PeerCost
		b.Wait += lr.Wait
		t = t.Add(lr.Cost + lr.Wait)
		if lr.Hit() {
			b.Outcome = lr.Outcome
			b.Coalesced = lr.Coalesced
			payload = lr.Value
			source = wire.SourceEdge
		}
	}

	if payload == nil { // miss or origin: forward the request to the cloud
		if err := ctx.Err(); err != nil {
			return nil, t, err
		}
		tCloud := s.Topo.EdgeCloud.Up.Transfer(t, upSize)
		b.UpEC = tCloud.Sub(t)
		t = tCloud

		data, cloudCost, err := compute()
		if err != nil {
			return nil, t, err
		}
		b.Cloud = cloudCost
		t = t.Add(cloudCost)
		payload = data

		tBack := s.Topo.EdgeCloud.Down.Transfer(t, replySize(wire.SourceCloud, payload))
		b.DownEC = tBack.Sub(t)
		t = tBack

		if b.Mode == ModeCoIC {
			// The edge caches what the cloud computed (for a model, its
			// loaded form): the next user skips both the WAN hop and the
			// cloud-side work.
			insertCost := s.Edge.InsertAtAs(s.Client.ID, desc, payload, cloudCost.Seconds()*1000, t)
			b.EdgeProc += insertCost
			t = t.Add(insertCost)
		}
	}

	b.BytesDown = replySize(source, payload)
	tClient := s.Topo.MobileEdge.Down.Transfer(t, b.BytesDown)
	b.DownME = tClient.Sub(t)
	return payload, tClient, nil
}

// Recognize executes one recognition request and returns the latency
// breakdown plus the (validated) recognition result. ctx gates the
// expensive stages: an expired context returns promptly — before the
// (real) DNN runs — rather than computing a result nobody wants.
func (s *Session) Recognize(ctx context.Context, at time.Time, class vision.Class, viewSeed uint64, mode Mode) (Breakdown, wire.RecognitionResult, error) {
	b := Breakdown{Task: wire.TaskRecognize, Mode: mode, Start: at, Outcome: cache.OutcomeMiss}
	if err := ctx.Err(); err != nil {
		return b, wire.RecognitionResult{}, err
	}
	frame := s.Client.CaptureFrame(class, viewSeed)

	desc := originDescriptor
	t := at
	if mode == ModeCoIC {
		desc, b.Extract = s.Client.Extract(frame)
		t = t.Add(b.Extract)
	}

	body, err := (wire.ExecRequest{Task: wire.TaskRecognize, Desc: desc, Payload: frame.Bytes()}).Marshal()
	if err != nil {
		return b, wire.RecognitionResult{}, err
	}
	resultBytes, t, err := s.fetch(ctx, &b, t, wire.MsgExec, desc, body, func() ([]byte, time.Duration, error) {
		return s.Cloud.Recognize(frame.Bytes())
	})
	if err != nil {
		return b, wire.RecognitionResult{}, err
	}

	b.End = t
	result, err := wire.UnmarshalRecognitionResult(resultBytes)
	if err != nil {
		return b, result, fmt.Errorf("core: recognition result corrupt: %w", err)
	}
	return b, result, nil
}

// ModelDescriptor is the cache key for a rendering task: the hash of the
// required 3D model's identity (paper §2: "the hash value of the required
// 3D model ... as the feature descriptor").
func ModelDescriptor(modelID string) feature.Descriptor {
	return feature.NewHash([]byte("model:" + modelID))
}

// Render executes one 3D-model load-and-draw task. An expired ctx
// returns promptly, and a ctx that expires before the cloud fetch
// abandons the request without paying for it.
func (s *Session) Render(ctx context.Context, at time.Time, modelID string, mode Mode) (Breakdown, error) {
	b := Breakdown{Task: wire.TaskRender, Mode: mode, Start: at, Outcome: cache.OutcomeMiss}
	if err := ctx.Err(); err != nil {
		return b, err
	}
	body, err := (wire.ModelFetch{ModelID: modelID, Format: wire.FormatCMF}).Marshal()
	if err != nil {
		return b, err
	}
	cmf, t, err := s.fetch(ctx, &b, at, wire.MsgModelFetch, ModelDescriptor(modelID), body, func() ([]byte, time.Duration, error) {
		return s.Cloud.FetchModel(modelID)
	})
	if err != nil {
		return b, err
	}

	// Client-side: load into memory, then draw.
	m, loadCost, err := s.Client.LoadModel(cmf)
	if err != nil {
		return b, err
	}
	st, drawCost := s.Client.Draw(m)
	if st.Pixels == 0 {
		return b, fmt.Errorf("core: model %q drew no pixels", modelID)
	}
	b.ClientProc = loadCost + drawCost
	b.End = t.Add(b.ClientProc)
	return b, nil
}

// PanoDescriptor is the cache key for a VR streaming task: the hash of
// the required panoramic frame's identity.
func PanoDescriptor(videoID string, frameIdx int) feature.Descriptor {
	return feature.NewHash([]byte(fmt.Sprintf("pano:%s:%d", videoID, frameIdx)))
}

// Pano executes one VR panorama fetch-and-crop task. An expired ctx
// returns promptly, and a ctx that expires before the cloud fetch
// abandons the request without paying for it.
func (s *Session) Pano(ctx context.Context, at time.Time, videoID string, frameIdx int, vp pano.Viewport, mode Mode) (Breakdown, error) {
	b := Breakdown{Task: wire.TaskPano, Mode: mode, Start: at, Outcome: cache.OutcomeMiss}
	if err := ctx.Err(); err != nil {
		return b, err
	}
	body, err := (wire.PanoFetch{VideoID: videoID, FrameIndex: uint32(frameIdx)}).Marshal()
	if err != nil {
		return b, err
	}
	rle, t, err := s.fetch(ctx, &b, at, wire.MsgPanoFetch, PanoDescriptor(videoID, frameIdx), body, func() ([]byte, time.Duration, error) {
		return s.Cloud.FetchPano(videoID, frameIdx)
	})
	if err != nil {
		return b, err
	}

	out, cropCost, err := s.Client.CropPano(rle, vp, 256, 256)
	if err != nil {
		return b, err
	}
	if out.W != 256 {
		return b, fmt.Errorf("core: bad crop size %d", out.W)
	}
	b.ClientProc = cropCost
	b.End = t.Add(cropCost)
	return b, nil
}
