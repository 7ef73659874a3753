package core

import (
	"context"
	"net"

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

// dispatch computes one request's result — the cloud-side work its kind's
// row names; only the cacheable kinds name any — and frames it as the
// reply that kind calls for. The connection's mode and tenant do not
// matter to the cloud.
func (s *CloudServer) dispatch(ctx context.Context, msg wire.Message, _ Mode, _ string) reply {
	k := kindOf(msg.Type)
	if k == nil {
		return reply{msg: errorReply(msg.RequestID, wire.CodeBadRequest, "cloud cannot handle %v", msg.Type)}
	}
	data, _, code, err := k.compute(s.Cloud, s.Obs, msg.Body)
	if err != nil {
		return reply{msg: errorReply(msg.RequestID, code, "%v", err)}
	}
	if ctx.Err() != nil {
		// The edge abandoned the fetch mid-compute; a full reply would
		// only be dropped by its read loop, so answer small.
		return reply{msg: errorReply(msg.RequestID, wire.CodeCanceled, "request canceled")}
	}
	return s.packReply(k, msg.RequestID, wire.SourceCloud, data)
}
