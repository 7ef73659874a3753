package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-immersion/coic/internal/scene"
	"github.com/edge-immersion/coic/internal/wire"
)

// EdgeServer exposes an Edge over TCP, forwarding misses to a cloud
// address over a single multiplexed upstream connection. With peers
// configured (SetupFederation) the edge first asks the descriptor's home
// peer — a cheap edge-to-edge hop — before paying for the cloud.
type EdgeServer struct {
	ServerCore
	Edge      *Edge
	CloudAddr string
	// WrapClient shapes accepted client connections; WrapCloud shapes
	// the upstream connection (the tc knobs of the paper's testbed).
	WrapClient ConnWrapper
	WrapCloud  ConnWrapper
	// WrapPeer shapes edge↔edge connections.
	WrapPeer ConnWrapper
	// FetchTimeout bounds one cloud fetch end to end — upstream slot
	// wait, dialing, and the round trip (DefaultFetchTimeout when zero).
	// On expiry the upstream connection is torn down, failing every
	// pending fetch — and therefore every waiter coalesced behind one —
	// fast, and the next miss re-dials.
	FetchTimeout time.Duration
	// MaxUpstream caps concurrent fetches on the multiplexed cloud
	// connection (DefaultWorkers+DefaultQueueDepth when 0 — the cloud's
	// default per-connection admission budget). Edge-side fetch demand is
	// connections × Workers, which can exceed what the cloud will admit
	// on one connection; excess fetches queue here instead of being shed
	// upstream as hard overload errors. Raise it in lockstep with the
	// cloud's -workers/-queue.
	MaxUpstream int
	// Replication is how many ring owners each published key is copied
	// to (the federation's replication factor); 0 or 1 is home-only.
	// Read by SetupFederation and SetupGossip.
	Replication int
	// GossipInterval is the membership protocol period (the member
	// package's default when 0); MigrateRate caps background key
	// migration in keys/second (0 is unthrottled). Both only matter
	// after SetupGossip.
	GossipInterval time.Duration
	MigrateRate    int

	mu     sync.Mutex
	gate   *upstreamGate
	cloud  *link
	peers  map[string]*link
	scenes *scene.Registry
	gossip *gossipState

	cloudFetches atomic.Uint64
}

// CloudFetches reports how many upstream round trips this edge has
// issued — the denominator of coalescing: K concurrent misses on one
// descriptor should raise it by exactly 1.
func (s *EdgeServer) CloudFetches() uint64 { return s.cloudFetches.Load() }

// Serve accepts client connections until the listener is closed.
func (s *EdgeServer) Serve(ln net.Listener) error {
	return s.ServeContext(context.Background(), ln)
}

// ServeContext accepts client connections until the listener closes or
// ctx is cancelled; cancellation drains in-flight requests before
// returning nil (graceful shutdown). With gossip configured
// (SetupGossip) it also runs the membership protocol and the migration
// worker, and on cancellation performs the graceful decommission —
// drain home keys to ring successors, broadcast member-leave — before
// returning, so a SIGTERMed edge exits without losing the fleet's keys.
func (s *EdgeServer) ServeContext(ctx context.Context, ln net.Listener) error {
	if g := s.gossip; g != nil {
		gctx, gcancel := context.WithCancel(context.Background())
		defer gcancel()
		go g.agent.Run(gctx)
		go s.migrateLoop(gctx)
		// Decommission runs after serve has drained in-flight work but
		// before gcancel (LIFO), while outbound transports still work.
		defer func() {
			if ctx.Err() != nil {
				s.Decommission()
			}
		}()
	}
	return s.serve(ctx, ln, s.WrapClient, s, s.sceneRegistry())
}

// sceneRegistry lazily builds the edge's shared-scene room registry —
// every client connection shares one, which is what makes rooms span
// connections.
func (s *EdgeServer) sceneRegistry() *scene.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scenes == nil {
		s.scenes = scene.NewRegistry()
	}
	return s.scenes
}

// SceneStats reports the edge's live scene rooms and members plus the
// publish total, for the stats surface and the metrics bridges.
func (s *EdgeServer) SceneStats() (rooms, members int, publishes uint64) {
	s.mu.Lock()
	reg := s.scenes
	s.mu.Unlock()
	if reg == nil {
		return 0, 0, 0
	}
	return reg.Stats()
}

// edgeError carries a protocol error code through the in-flight table so
// every coalesced waiter replies with the leader's true failure.
type edgeError struct {
	code uint16
	msg  string
}

func (e *edgeError) Error() string { return e.msg }

// fetchErrorReply answers a request whose upstream fetch failed; a coded
// failure (the cloud's own, or the edge's verdict on its reply) passes
// through unchanged.
func fetchErrorReply(reqID uint64, err error) wire.Message {
	if isCanceled(err) {
		return errorReply(reqID, wire.CodeCanceled, "request canceled")
	}
	var ee *edgeError
	if errors.As(err, &ee) {
		return errorReply(reqID, ee.code, "%s", ee.msg)
	}
	return errorReply(reqID, wire.CodeUnavailable, "cloud: %v", err)
}

// cacheOrFetch answers every cacheable request kind: decode what the
// request asks the cache for, then run the edge's one cache-or-fetch
// decision (Edge.serve) with the upstream link as the way to the cloud.
//
// A hit's payload is the cache's resident bytes, lent (cache.Store.Get):
// packing the reply is the one copy of it, and every coalesced waiter
// packs its own.
func (s *EdgeServer) cacheOrFetch(ctx context.Context, k *taskKind, msg wire.Message, mode Mode, tenant string) reply {
	decodeStart := time.Now()
	task, desc, err := k.key(msg.Body)
	s.Obs.observeDecode(time.Since(decodeStart))
	if err != nil {
		return reply{msg: errorReply(msg.RequestID, wire.CodeBadRequest, "bad %s: %v", k.name, err)}
	}
	q := edgeQuery{msg: msg, mode: mode, task: task, desc: desc, user: anonymousUser, tenant: tenant}
	payload, source, _, err := s.Edge.serve(ctx, q, s.Obs, s)
	if err != nil {
		return reply{msg: fetchErrorReply(msg.RequestID, err)}
	}
	return s.packReply(k, msg.RequestID, source, payload)
}

// cloudFetch is the edge's TCP hop to the cloud: one round trip on the
// upstream link, its reply checked against the request's kind and its
// payload unpacked. A failure other than a cancellation is an edgeError
// carrying the code the client is answered with. The cost hint is 1:
// wall-clock fetches are not weighed by cost.
func (s *EdgeServer) cloudFetch(ctx context.Context, tenant string, msg wire.Message, _ time.Time) ([]byte, float64, time.Time, error) {
	k := kindOf(msg.Type)
	reply, err := s.roundTripCloud(ctx, tenant, msg)
	if err != nil {
		if isCanceled(err) {
			return nil, 0, time.Time{}, err
		}
		return nil, 0, time.Time{}, &edgeError{code: wire.CodeUnavailable, msg: fmt.Sprintf("cloud: %v", err)}
	}
	if reply.Type == wire.MsgError {
		if er, uerr := wire.UnmarshalErrorReply(reply.Body); uerr == nil {
			return nil, 0, time.Time{}, &edgeError{code: er.Code, msg: er.Msg}
		}
		return nil, 0, time.Time{}, &edgeError{code: wire.CodeInternal, msg: "malformed cloud error reply"}
	}
	if reply.Type != k.reply {
		return nil, 0, time.Time{}, &edgeError{code: wire.CodeInternal, msg: fmt.Sprintf("cloud replied %v, want %v", reply.Type, k.reply)}
	}
	data, _, err := k.unpack(reply.Body)
	if err != nil {
		return nil, 0, time.Time{}, &edgeError{code: wire.CodeInternal, msg: fmt.Sprintf("corrupt cloud reply: %v", err)}
	}
	return data, 1, time.Time{}, nil
}

func (s *EdgeServer) dispatch(ctx context.Context, msg wire.Message, mode Mode, tenant string) reply {
	if k := kindOf(msg.Type); k != nil {
		return s.cacheOrFetch(ctx, k, msg, mode, tenant)
	}
	return reply{msg: s.dispatchPeer(msg)}
}

// dispatchPeer answers the edge↔edge frames: peer probes and publishes,
// and membership gossip.
func (s *EdgeServer) dispatchPeer(msg wire.Message) wire.Message {
	switch msg.Type {
	case wire.MsgPeerLookup:
		// A federated peer probing this edge: answer from the local cache
		// only — never our own peers, never the cloud — so federated
		// lookups stay single-hop and cannot loop.
		req, err := wire.UnmarshalPeerLookup(msg.Body)
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeBadRequest, "bad peer lookup: %v", err)
		}
		v, res := s.Edge.PeerProbe(-1, req.Desc)
		body, _ := (wire.PeerReply{
			Outcome:  outcomeToProbe(res.Outcome),
			Distance: res.Distance,
			Result:   v,
		}).Marshal()
		return wire.Message{Type: wire.MsgPeerReply, RequestID: msg.RequestID, Body: body}

	case wire.MsgPeerInsert:
		// A federated peer publishing a result whose consistent-hash home
		// is this edge. The ack is an empty PeerReply.
		req, err := wire.UnmarshalPeerInsert(msg.Body)
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeBadRequest, "bad peer insert: %v", err)
		}
		s.Edge.AdoptRemote(req.Desc, req.Value, req.Cost)
		body, _ := (wire.PeerReply{Outcome: wire.ProbeMiss}).Marshal()
		return wire.Message{Type: wire.MsgPeerReply, RequestID: msg.RequestID, Body: body}

	case wire.MsgMemberPing, wire.MsgMemberGossip, wire.MsgMemberLeave:
		// A fleet member gossiping its view (the kinds differ only in
		// intent — a leave is just the sender marked dead). Merge it and
		// ack with ours: every exchange is bidirectional anti-entropy.
		g := s.gossip
		if g == nil {
			return errorReply(msg.RequestID, wire.CodeBadRequest, "membership gossip not enabled on this edge")
		}
		req, err := wire.UnmarshalMembership(msg.Body)
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeBadRequest, "bad membership frame: %v", err)
		}
		ack := g.agent.HandleDigest(digestFromWire(req))
		body, err := digestToWire(ack).Marshal()
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeInternal, "membership ack: %v", err)
		}
		return wire.Message{Type: wire.MsgMemberAck, RequestID: msg.RequestID, Body: body}

	default:
		return errorReply(msg.RequestID, wire.CodeBadRequest, "edge cannot handle %v", msg.Type)
	}
}
