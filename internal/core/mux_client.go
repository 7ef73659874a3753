package core

import (
	"context"
	"fmt"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// MuxClient is the demultiplexed mobile-side connection under the public
// streaming API: any number of requests in flight on one TCP connection,
// replies matched to waiters by RequestID. It is a link that never
// re-dials — a lost connection fails everything in flight and stays lost
// — plus the on-device half of each task (Build and Finish).
type MuxClient struct {
	Client *Client
	Mode   Mode

	link *link
}

// SetPushHandler installs the handler for server-initiated frames
// (MsgSceneEvent) and an optional connection-loss callback. Install
// before the first push can arrive — in practice, before any scene
// join is sent. The handler runs on the read loop: it must not block.
func (m *MuxClient) SetPushHandler(onPush func(wire.Message), onClose func()) {
	m.link.setHandlers(onPush, onClose)
}

// RemoteError is a protocol-level error reply surfaced to the caller,
// carrying the wire error code so upper layers can map well-known codes
// (deadline-shed, overload, cancel) to typed errors.
type RemoteError struct {
	Code uint16
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("core: remote error %d: %s", e.Code, e.Msg)
}

// clientDialTimeout bounds a client's connect plus hello exchange when
// the dial context carries no tighter deadline.
const clientDialTimeout = 10 * time.Second

// DialMuxEdge connects to an edge and announces the execution mode and a
// tenant claim. ctx bounds the dial and the hello exchange only. The
// hello carries tenant and token, the server authenticates them before
// any request is served, and a rejected claim fails the dial with the
// server's error. An empty tenant runs as the default tenant.
func DialMuxEdge(ctx context.Context, addr string, client *Client, mode Mode, wrap ConnWrapper, tenant, token string) (*MuxClient, error) {
	l := &link{
		addr: addr, name: "edge", wrap: wrap,
		hello: wire.Hello{
			Version: wire.HelloVersion,
			Mode:    uint8(mode),
			Flags:   wire.HelloFlagUnordered,
			Tenant:  tenant,
			Token:   token,
		},
		dialCap: clientDialTimeout,
	}
	l.mu.Lock()
	if err := l.connect(ctx, time.Time{}); err != nil {
		return nil, err
	}
	return &MuxClient{Client: client, Mode: mode, link: l}, nil
}

// Close releases the connection; every in-flight request fails with
// ErrConnClosed (its reply channel closes).
func (m *MuxClient) Close() error {
	m.link.close()
	return nil
}

// Start registers a reply slot and ships msg, returning the assigned
// RequestID and the channel its reply (exactly one message, or a close
// on connection loss) will arrive on.
func (m *MuxClient) Start(msg wire.Message) (uint64, <-chan wire.Message, error) {
	ch := make(chan wire.Message, 1)
	_, id, err := m.link.start(context.Background(), msg, ch, time.Time{})
	return id, ch, err
}

// Forget withdraws interest in a reply: if it has not arrived yet, the
// read loop will drop it on arrival.
func (m *MuxClient) Forget(id uint64) { m.link.forget(id) }

// SendCancel asks the server to abort the named in-flight request. The
// target still answers in its reply slot — CodeCanceled, or its result
// if the cancel lost the race — so a waiter that keeps listening observes
// the outcome; the cancel's own ack is dropped by the read loop.
func (m *MuxClient) SendCancel(target uint64) error { return m.link.sendCancel(target) }

// RoundTrip ships one request and awaits its reply. When ctx dies first
// the request is cancelled server-side (best effort) and ctx.Err()
// returns; the eventual reply is dropped. Error replies surface as
// *RemoteError.
func (m *MuxClient) RoundTrip(ctx context.Context, msg wire.Message) (wire.Message, error) {
	reply, err := m.link.roundTrip(ctx, msg, time.Time{})
	if err == nil {
		err = ReplyError(reply)
	}
	if err != nil {
		return wire.Message{}, err
	}
	return reply, nil
}

// ReplyError converts an error reply into a *RemoteError (nil for any
// other frame type).
func ReplyError(reply wire.Message) error {
	if reply.Type != wire.MsgError {
		return nil
	}
	er, uerr := wire.UnmarshalErrorReply(reply.Body)
	if uerr != nil {
		return fmt.Errorf("core: malformed error reply: %v", uerr)
	}
	return &RemoteError{Code: er.Code, Msg: er.Msg}
}

// Build does the on-device work that precedes task t (for recognition:
// frame capture and, in CoIC mode, descriptor extraction) and frames its
// request. qos, deadline (zero = none) and trace ride the scheduling
// trailer; a non-zero trace makes the edge and cloud log this request
// under the same ID. Build and Finish are split so a Stream can overlap
// many requests: Build → Start → ... → Finish, with the network round
// trips in between shared and out of order.
func (m *MuxClient) Build(t Task, qos wire.QoS, deadline time.Time, trace uint64) (wire.Message, error) {
	k, err := kindOfTask(t.Kind)
	if err != nil {
		return wire.Message{}, err
	}
	tr := trailer{qos: qos, trace: trace}
	if !deadline.IsZero() {
		tr.deadline = deadline.UnixMicro()
	}
	body, _, _, err := k.build(m.Client, m.Mode, t, tr)
	if err != nil {
		return wire.Message{}, err
	}
	return wire.Message{Type: k.request, Body: body}, nil
}

// Finish decodes the reply to task t's request and runs the client-side
// half of the task on it (result decode, model load + draw, panorama
// crop). It returns the recognition result (recognition only) and the
// tier that supplied the payload; an error reply surfaces as
// *RemoteError.
func (m *MuxClient) Finish(t Task, reply wire.Message) (*wire.RecognitionResult, uint8, error) {
	if err := ReplyError(reply); err != nil {
		return nil, 0, err
	}
	k, err := kindOfTask(t.Kind)
	if err != nil {
		return nil, 0, err
	}
	payload, source, err := k.unpack(reply.Body)
	if err != nil {
		return nil, 0, err
	}
	res, _, err := k.finish(m.Client, t, payload)
	if err != nil {
		return nil, 0, err
	}
	return res, source, nil
}
