package core

import (
	"fmt"
	"math"
	"time"

	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// Task is one IC task as the device states it, before any of it is a
// wire frame: the kind plus that kind's arguments (the other kinds'
// fields are ignored). Build one with RecognizeTask, RenderTask or
// PanoTask.
type Task struct {
	Kind wire.Task

	Class    vision.Class // recognition: the object the camera points at…
	ViewSeed uint64       // …from the viewpoint this seeds

	ModelID string // render: the 3D model to load and draw

	VideoID  string        // pano: the VR video…
	Frame    int           // …the panoramic frame of it…
	Viewport pano.Viewport // …and the view the user crops from that frame
}

// RecognizeTask observes an object of class from the viewpoint viewSeed
// draws and asks for its label.
func RecognizeTask(class vision.Class, viewSeed uint64) Task {
	return Task{Kind: wire.TaskRecognize, Class: class, ViewSeed: viewSeed}
}

// RenderTask loads and draws the 3D model modelID.
func RenderTask(modelID string) Task { return Task{Kind: wire.TaskRender, ModelID: modelID} }

// PanoTask fetches panoramic frame `frame` of a VR video and crops vp
// from it.
func PanoTask(videoID string, frame int, vp pano.Viewport) Task {
	return Task{Kind: wire.TaskPano, VideoID: videoID, Frame: frame, Viewport: vp}
}

// trailer is the scheduling trailer a request body may end with: service
// class, absolute deadline (unix microseconds, 0 = none) and trace ID.
// The zero value marshals to no trailer at all — what virtual time sends.
type trailer struct {
	qos      wire.QoS
	deadline int64
	trace    uint64
}

// taskKind is the one description of an IC task kind, device to cloud
// (paper §2: one cache-or-fetch decision applied to recognition,
// rendering and VR streaming). Every tier reads the table below instead
// of switching on the kind: the device (Session.Do in virtual time,
// MuxClient.Build/Finish over TCP) calls build and finish, the edge
// (EdgeServer.cacheOrFetch and its virtual-time counterpart
// Session.fetch) key, pack and unpack, the cloud (CloudServer.dispatch,
// Session.fetch) compute. A new task kind is one more row.
type taskKind struct {
	name           string       // the request's name in error text
	request, reply wire.MsgType // the frame that asks, the frame that answers

	// build does the on-device work that precedes the request (frame
	// capture and, in CoIC mode, descriptor extraction) and marshals the
	// request body around tr. It also returns the descriptor the body
	// names and the virtual time the device spent.
	build func(c *Client, mode Mode, t Task, tr trailer) (body []byte, desc feature.Descriptor, cost time.Duration, err error)
	// key decodes a request body into what the cache is asked for.
	key func(body []byte) (wire.Task, feature.Descriptor, error)
	// compute is the cloud's work for a request body: the result payload
	// and its virtual cost, or the protocol error code a failure answers
	// with. o (nil in virtual time) times the body decode where the cloud
	// server reports one.
	compute func(cloud *Cloud, o *ServerObs, body []byte) (payload []byte, cost time.Duration, code uint16, err error)
	// size is the length of the reply body around a payload, from the
	// body's layout alone; pack appends that body to dst; unpack takes the
	// payload, and the tier that supplied it, back out of one.
	size   func(payload []byte) int
	pack   func(dst []byte, source uint8, payload []byte) []byte
	unpack func(body []byte) (payload []byte, source uint8, err error)
	// finish does the on-device work on a payload — result decode, model
	// load and draw, panorama crop — and returns its virtual cost; res is
	// set by recognition only.
	finish func(c *Client, t Task, payload []byte) (res *wire.RecognitionResult, cost time.Duration, err error)
}

// taskKinds is indexed by request frame type; rows with a nil key are
// not cacheable requests.
var taskKinds = [...]taskKind{
	wire.MsgExec: {
		name: "exec", request: wire.MsgExec, reply: wire.MsgExecReply,
		build: func(c *Client, mode Mode, t Task, tr trailer) ([]byte, feature.Descriptor, time.Duration, error) {
			frame := c.CaptureFrame(t.Class, t.ViewSeed)
			desc, cost := originDescriptor, time.Duration(0)
			if mode == ModeCoIC {
				desc, cost = c.Extract(frame)
			}
			body, err := (wire.ExecRequest{Task: wire.TaskRecognize, Desc: desc, Payload: frame.Bytes(),
				QoS: tr.qos, Deadline: tr.deadline, TraceID: tr.trace}).Marshal()
			return body, desc, cost, err
		},
		key: func(body []byte) (wire.Task, feature.Descriptor, error) {
			req, err := wire.UnmarshalExecRequest(body)
			return req.Task, req.Desc, err
		},
		compute: func(cloud *Cloud, o *ServerObs, body []byte) ([]byte, time.Duration, uint16, error) {
			frame, err := recognizePayload(o, body)
			if err != nil {
				return nil, 0, wire.CodeBadRequest, err
			}
			result, cost, err := cloud.Recognize(frame)
			if err != nil {
				return nil, 0, wire.CodeInternal, fmt.Errorf("recognize: %w", err)
			}
			return result, cost, 0, nil
		},
		size: func(payload []byte) int { return wire.ExecReply{Result: payload}.Size() },
		pack: func(dst []byte, source uint8, payload []byte) []byte {
			body, _ := (wire.ExecReply{Source: source, Result: payload}).AppendTo(dst)
			return body
		},
		unpack: func(body []byte) ([]byte, uint8, error) {
			r, err := wire.UnmarshalExecReply(body)
			return r.Result, r.Source, err
		},
		finish: func(_ *Client, _ Task, payload []byte) (*wire.RecognitionResult, time.Duration, error) {
			res, err := wire.UnmarshalRecognitionResult(payload)
			if err != nil {
				return nil, 0, fmt.Errorf("core: recognition result corrupt: %w", err)
			}
			return &res, 0, nil
		},
	},
	wire.MsgModelFetch: {
		name: "model fetch", request: wire.MsgModelFetch, reply: wire.MsgModelReply,
		build: func(_ *Client, _ Mode, t Task, tr trailer) ([]byte, feature.Descriptor, time.Duration, error) {
			body, err := (wire.ModelFetch{ModelID: t.ModelID, Format: wire.FormatCMF,
				QoS: tr.qos, Deadline: tr.deadline, TraceID: tr.trace}).Marshal()
			return body, ModelDescriptor(t.ModelID), 0, err
		},
		key: func(body []byte) (wire.Task, feature.Descriptor, error) {
			req, err := wire.UnmarshalModelFetch(body)
			return wire.TaskRender, ModelDescriptor(req.ModelID), err
		},
		compute: func(cloud *Cloud, _ *ServerObs, body []byte) ([]byte, time.Duration, uint16, error) {
			req, err := wire.UnmarshalModelFetch(body)
			if err != nil {
				return nil, 0, wire.CodeBadRequest, fmt.Errorf("bad model fetch: %v", err)
			}
			data, cost, err := cloud.FetchModel(req.ModelID)
			return data, cost, wire.CodeUnknownModel, err
		},
		size: func(payload []byte) int { return wire.ModelReply{Data: payload}.Size() },
		pack: func(dst []byte, source uint8, payload []byte) []byte {
			body, _ := (wire.ModelReply{Format: wire.FormatCMF, Source: source, Data: payload}).AppendTo(dst)
			return body
		},
		unpack: func(body []byte) ([]byte, uint8, error) {
			r, err := wire.UnmarshalModelReply(body)
			return r.Data, r.Source, err
		},
		// Client-side: load the model into memory, then draw it once.
		finish: func(c *Client, t Task, payload []byte) (*wire.RecognitionResult, time.Duration, error) {
			m, loadCost, err := c.LoadModel(payload)
			if err != nil {
				return nil, 0, err
			}
			st, drawCost := c.Draw(m)
			if st.Pixels == 0 {
				return nil, 0, fmt.Errorf("core: model %q drew no pixels", t.ModelID)
			}
			return nil, loadCost + drawCost, nil
		},
	},
	wire.MsgPanoFetch: {
		name: "pano fetch", request: wire.MsgPanoFetch, reply: wire.MsgPanoReply,
		build: func(_ *Client, _ Mode, t Task, tr trailer) ([]byte, feature.Descriptor, time.Duration, error) {
			// The wire carries the frame index as a u32: refuse what would
			// wrap into some other frame rather than fetch that one.
			if t.Frame < 0 || int64(t.Frame) > math.MaxUint32 {
				return nil, feature.Descriptor{}, 0, fmt.Errorf("core: pano frame %d outside [0, %d]", t.Frame, uint32(math.MaxUint32))
			}
			body, err := (wire.PanoFetch{VideoID: t.VideoID, FrameIndex: uint32(t.Frame),
				QoS: tr.qos, Deadline: tr.deadline, TraceID: tr.trace}).Marshal()
			return body, PanoDescriptor(t.VideoID, t.Frame), 0, err
		},
		key: func(body []byte) (wire.Task, feature.Descriptor, error) {
			req, err := wire.UnmarshalPanoFetch(body)
			return wire.TaskPano, PanoDescriptor(req.VideoID, int(req.FrameIndex)), err
		},
		compute: func(cloud *Cloud, _ *ServerObs, body []byte) ([]byte, time.Duration, uint16, error) {
			req, err := wire.UnmarshalPanoFetch(body)
			if err != nil {
				return nil, 0, wire.CodeBadRequest, fmt.Errorf("bad pano fetch: %v", err)
			}
			data, cost, err := cloud.FetchPano(req.VideoID, int(req.FrameIndex))
			if err != nil {
				return nil, 0, wire.CodeInternal, fmt.Errorf("pano: %w", err)
			}
			return data, cost, 0, nil
		},
		size: func(payload []byte) int { return wire.PanoReply{Data: payload}.Size() },
		pack: func(dst []byte, source uint8, payload []byte) []byte {
			body, _ := (wire.PanoReply{Source: source, Data: payload}).AppendTo(dst)
			return body
		},
		unpack: func(body []byte) ([]byte, uint8, error) {
			r, err := wire.UnmarshalPanoReply(body)
			return r.Data, r.Source, err
		},
		finish: func(c *Client, t Task, payload []byte) (*wire.RecognitionResult, time.Duration, error) {
			out, cost, err := c.CropPano(payload, t.Viewport, 256, 256)
			if err != nil {
				return nil, 0, err
			}
			if out.W != 256 {
				return nil, 0, fmt.Errorf("core: bad crop size %d", out.W)
			}
			return nil, cost, nil
		},
	},
}

// kindOf returns t's row, or nil when t is not a cacheable request.
func kindOf(t wire.MsgType) *taskKind {
	if int(t) >= len(taskKinds) || taskKinds[t].key == nil {
		return nil
	}
	return &taskKinds[t]
}

// kindOfTask returns the row of the request frame that carries task t.
func kindOfTask(t wire.Task) (*taskKind, error) {
	switch t {
	case wire.TaskRecognize:
		return &taskKinds[wire.MsgExec], nil
	case wire.TaskRender:
		return &taskKinds[wire.MsgModelFetch], nil
	case wire.TaskPano:
		return &taskKinds[wire.MsgPanoFetch], nil
	}
	return nil, fmt.Errorf("core: unknown task %v", t)
}

// replyWith frames payload as this kind's answer to request reqID, in a
// fresh body (a server packs through ServerCore.packReply instead).
func (k *taskKind) replyWith(reqID uint64, source uint8, payload []byte) wire.Message {
	body := k.pack(make([]byte, 0, k.size(payload)), source, payload)
	return wire.Message{Type: k.reply, RequestID: reqID, Body: body}
}

// replySize is the wire size of this kind's reply around payload, from
// the body's layout alone: what virtual time charges a link for the
// reply, without building it.
func (k *taskKind) replySize(payload []byte) int { return wire.HeaderSize + k.size(payload) }

// recognizePayload decodes an exec request — serial or batched — down to
// the camera frame the cloud is to recognise.
func recognizePayload(o *ServerObs, body []byte) ([]byte, error) {
	decodeStart := time.Now()
	req, err := wire.UnmarshalExecRequest(body)
	o.observeDecode(time.Since(decodeStart))
	if err != nil {
		return nil, fmt.Errorf("bad exec: %v", err)
	}
	if req.Task != wire.TaskRecognize {
		return nil, fmt.Errorf("cloud exec supports recognition only, got %v", req.Task)
	}
	return req.Payload, nil
}
