package core

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// CloudServer exposes a Cloud over TCP.
type CloudServer struct {
	ServerCore
	Cloud *Cloud
	// Wrap shapes each accepted connection when non-nil.
	Wrap ConnWrapper
}

// Serve accepts connections until the listener is closed.
func (s *CloudServer) Serve(ln net.Listener) error {
	return s.ServeContext(context.Background(), ln)
}

// ServeContext accepts connections until the listener closes or ctx is
// cancelled; on cancellation it shuts down gracefully — in-flight
// requests drain, replies flush, connections close, then it returns nil.
func (s *CloudServer) ServeContext(ctx context.Context, ln net.Listener) error {
	return s.serve(ctx, ln, s.Wrap, s, nil)
}

// dispatch computes one request's result and frames it as the reply the
// request's kind calls for. The connection's mode and tenant do not
// matter to the cloud.
func (s *CloudServer) dispatch(ctx context.Context, msg wire.Message, _ Mode, _ string) wire.Message {
	data, code, err := s.compute(msg)
	if err != nil {
		return errorReply(msg.RequestID, code, "%v", err)
	}
	if ctx.Err() != nil {
		// The edge abandoned the fetch mid-compute; a full reply would
		// only be dropped by its read loop, so answer small.
		return errorReply(msg.RequestID, wire.CodeCanceled, "request canceled")
	}
	return kindOf(msg.Type).replyWith(msg.RequestID, wire.SourceCloud, data)
}

// recognizePayload decodes an exec request — serial or batched — down to
// the camera frame the cloud is to recognise.
func (s *CloudServer) recognizePayload(body []byte) ([]byte, error) {
	decodeStart := time.Now()
	req, err := wire.UnmarshalExecRequest(body)
	s.Obs.observeDecode(time.Since(decodeStart))
	if err != nil {
		return nil, fmt.Errorf("bad exec: %v", err)
	}
	if req.Task != wire.TaskRecognize {
		return nil, fmt.Errorf("cloud exec supports recognition only, got %v", req.Task)
	}
	return req.Payload, nil
}

// compute runs the cloud-side work a request names — only the cacheable
// kinds name any; on failure it also returns the protocol error code to
// answer with.
func (s *CloudServer) compute(msg wire.Message) ([]byte, uint16, error) {
	switch msg.Type {
	case wire.MsgExec:
		payload, err := s.recognizePayload(msg.Body)
		if err != nil {
			return nil, wire.CodeBadRequest, err
		}
		result, _, err := s.Cloud.Recognize(payload)
		if err != nil {
			return nil, wire.CodeInternal, fmt.Errorf("recognize: %v", err)
		}
		return result, 0, nil
	case wire.MsgModelFetch:
		req, err := wire.UnmarshalModelFetch(msg.Body)
		if err != nil {
			return nil, wire.CodeBadRequest, fmt.Errorf("bad model fetch: %v", err)
		}
		data, _, err := s.Cloud.FetchModel(req.ModelID)
		return data, wire.CodeUnknownModel, err
	case wire.MsgPanoFetch:
		req, err := wire.UnmarshalPanoFetch(msg.Body)
		if err != nil {
			return nil, wire.CodeBadRequest, fmt.Errorf("bad pano fetch: %v", err)
		}
		data, _, err := s.Cloud.FetchPano(req.VideoID, int(req.FrameIndex))
		if err != nil {
			return nil, wire.CodeInternal, fmt.Errorf("pano: %v", err)
		}
		return data, 0, nil
	default:
		return nil, wire.CodeBadRequest, fmt.Errorf("cloud cannot handle %v", msg.Type)
	}
}
