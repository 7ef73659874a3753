package core

import (
	"context"
	"strconv"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/netsim"
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

// fetch carries one request of kind k from the client to the edge and its
// result back, in virtual time: the mobile links either side of the
// edge's one cache-or-fetch decision (Edge.serve, which EdgeServer runs
// over TCP), with a virtualHop as its way to the cloud. body is the
// marshalled request and desc its cache descriptor. b (whose Task and
// Mode are set) accumulates the breakdown from instant t; fetch returns
// the result payload and the instant the reply reaches the client. A ctx
// that expires before the cloud round trip abandons the request instead
// of paying for work nobody will read.
func (s *Session) fetch(ctx context.Context, b *Breakdown, t time.Time, k *taskKind, desc feature.Descriptor, body []byte) ([]byte, time.Time, error) {
	msg := wire.Message{Type: k.request, RequestID: s.nextID(), Body: body}
	b.BytesUp = msg.WireSize()
	tEdge := s.Topo.MobileEdge.Up.Transfer(t, b.BytesUp)
	b.UpME = tEdge.Sub(t)
	t = tEdge

	hop := &virtualHop{s: s, k: k}
	q := edgeQuery{msg: msg, mode: b.Mode, task: b.Task, desc: desc, user: s.Client.ID, tenant: DefaultTenant, at: t}
	payload, source, lr, err := s.Edge.serve(ctx, q, nil, hop)
	b.EdgeProc += lr.Cost - lr.PeerCost
	b.PeerHop += lr.PeerCost
	b.Wait += lr.Wait
	t = t.Add(lr.Cost + lr.Wait)
	if err != nil {
		return nil, t, err
	}
	if source == wire.SourceEdge { // a hit, or a join of a concurrent caller's flight
		b.Outcome = lr.Outcome
		b.Coalesced = lr.Coalesced
	} else {
		b.UpEC, b.Cloud, b.DownEC = hop.up, hop.cloud, hop.down
		t = hop.back
		if b.Mode == ModeCoIC {
			// The edge cached what the cloud computed (for a model, its
			// loaded form): the next user skips both the WAN hop and the
			// cloud-side work.
			b.EdgeProc += s.Edge.Params.EdgeInsertTime
			t = t.Add(s.Edge.Params.EdgeInsertTime)
		}
	}

	b.BytesDown = k.replySize(payload)
	tClient := s.Topo.MobileEdge.Down.Transfer(t, b.BytesDown)
	b.DownME = tClient.Sub(t)
	return payload, tClient, nil
}

// virtualHop is a Session's way to the cloud for one request: the request
// crosses the edge→cloud link, the cloud computes, the reply crosses
// back, each leg charged in virtual time and kept for the breakdown.
type virtualHop struct {
	s               *Session
	k               *taskKind
	up, cloud, down time.Duration
	back            time.Time // the reply is back at the edge
}

func (h *virtualHop) cloudFetch(_ context.Context, _ string, msg wire.Message, leave time.Time) ([]byte, float64, time.Time, error) {
	tCloud := h.s.Topo.EdgeCloud.Up.Transfer(leave, msg.WireSize())
	h.up = tCloud.Sub(leave)
	payload, cost, _, err := h.k.compute(h.s.Cloud, nil, msg.Body)
	if err != nil {
		return nil, 0, time.Time{}, err
	}
	h.cloud = cost
	t := tCloud.Add(cost)
	h.back = h.s.Topo.EdgeCloud.Down.Transfer(t, h.k.replySize(payload))
	h.down = h.back.Sub(t)
	return payload, cost.Seconds() * 1000, h.back, nil
}

// Do executes one task end to end in virtual time — on-device build,
// the fetch through edge and cloud, on-device finish — and returns the
// latency breakdown plus, for recognition, the decoded result. ctx gates
// the expensive stages: an expired context returns promptly — before any
// (real) DNN or cloud work runs — and one that expires before the cloud
// fetch abandons the request without paying for it.
func (s *Session) Do(ctx context.Context, at time.Time, task Task, mode Mode) (Breakdown, *wire.RecognitionResult, error) {
	b := Breakdown{Task: task.Kind, Mode: mode, Start: at, Outcome: cache.OutcomeMiss}
	k, err := kindOfTask(task.Kind)
	if err != nil {
		return b, nil, err
	}
	if err := ctx.Err(); err != nil {
		return b, nil, err
	}
	body, desc, cost, err := k.build(s.Client, mode, task, trailer{})
	if err != nil {
		return b, nil, err
	}
	b.Extract = cost
	payload, t, err := s.fetch(ctx, &b, at.Add(cost), k, desc, body)
	if err != nil {
		return b, nil, err
	}
	res, cost, err := k.finish(s.Client, task, payload)
	if err != nil {
		return b, nil, err
	}
	b.ClientProc = cost
	b.End = t.Add(cost)
	return b, res, nil
}

// ModelDescriptor is the cache key for a rendering task: the hash of the
// required 3D model's identity (paper §2: "the hash value of the required
// 3D model ... as the feature descriptor").
func ModelDescriptor(modelID string) feature.Descriptor {
	return feature.NewHash([]byte("model:" + modelID))
}

// PanoDescriptor is the cache key for a VR streaming task: the hash of
// the required panoramic frame's identity.
func PanoDescriptor(videoID string, frameIdx int) feature.Descriptor {
	var buf [64]byte // holds the key without a heap allocation for IDs up to 38 bytes
	key := append(append(append(buf[:0], "pano:"...), videoID...), ':')
	return feature.NewHash(strconv.AppendInt(key, int64(frameIdx), 10))
}
