package core

import (
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/wire"
)

// taskKind is how one cacheable request type rides the cache-or-fetch
// path (paper §2): which cache task and descriptor a request body names,
// which frame answers it, and how the cached payload travels inside that
// frame. The edge's TCP path (EdgeServer.cacheOrFetch), its virtual-time
// counterpart (Session.fetch) and the cloud's reply framing all read the
// one table below.
type taskKind struct {
	name  string       // the request's name in error text
	reply wire.MsgType // the frame that answers it
	// key decodes a request body into what the cache is asked for.
	key func(body []byte) (wire.Task, feature.Descriptor, error)
	// pack builds the reply body around a payload; unpack takes the
	// payload back out of one.
	pack   func(source uint8, payload []byte) []byte
	unpack func(body []byte) ([]byte, error)
}

// taskKinds is indexed by request frame type; rows with a nil key are
// not cacheable requests.
var taskKinds = [...]taskKind{
	wire.MsgExec: {
		name: "exec", reply: wire.MsgExecReply,
		key: func(body []byte) (wire.Task, feature.Descriptor, error) {
			req, err := wire.UnmarshalExecRequest(body)
			return req.Task, req.Desc, err
		},
		pack: func(source uint8, payload []byte) []byte {
			body, _ := (wire.ExecReply{Source: source, Result: payload}).Marshal()
			return body
		},
		unpack: func(body []byte) ([]byte, error) {
			r, err := wire.UnmarshalExecReply(body)
			return r.Result, err
		},
	},
	wire.MsgModelFetch: {
		name: "model fetch", reply: wire.MsgModelReply,
		key: func(body []byte) (wire.Task, feature.Descriptor, error) {
			req, err := wire.UnmarshalModelFetch(body)
			return wire.TaskRender, ModelDescriptor(req.ModelID), err
		},
		pack: func(source uint8, payload []byte) []byte {
			body, _ := (wire.ModelReply{Format: wire.FormatCMF, Source: source, Data: payload}).Marshal()
			return body
		},
		unpack: func(body []byte) ([]byte, error) {
			r, err := wire.UnmarshalModelReply(body)
			return r.Data, err
		},
	},
	wire.MsgPanoFetch: {
		name: "pano fetch", reply: wire.MsgPanoReply,
		key: func(body []byte) (wire.Task, feature.Descriptor, error) {
			req, err := wire.UnmarshalPanoFetch(body)
			return wire.TaskPano, PanoDescriptor(req.VideoID, int(req.FrameIndex)), err
		},
		pack: func(source uint8, payload []byte) []byte {
			body, _ := (wire.PanoReply{Source: source, Data: payload}).Marshal()
			return body
		},
		unpack: func(body []byte) ([]byte, error) {
			r, err := wire.UnmarshalPanoReply(body)
			return r.Data, err
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

// replyWith frames payload as this kind's answer to request reqID.
func (k *taskKind) replyWith(reqID uint64, source uint8, payload []byte) wire.Message {
	return wire.Message{Type: k.reply, RequestID: reqID, Body: k.pack(source, payload)}
}
