package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-immersion/coic/internal/scene"
	"github.com/edge-immersion/coic/internal/wire"
)

// This file adapts internal/scene to the connection pipeline: each
// connection gets a process-unique identity for room membership and a
// pushOutbox — the scene-push producer feeding the connection's single
// writer goroutine — and the scene request frames (join/publish/leave)
// are dispatched here against the edge's registry.

// nextConnID mints per-process connection identities for scene
// membership; 0 is never issued, so it can mean "no connection".
var nextConnID atomic.Uint64

// pushOutbox buffers server-push frames for one connection. It is the
// second producer on the connection writer (the first being in-order
// replies) and is deliberately not a channel: enqueue never blocks the
// publisher's worker, and when a member consumes slower than the room
// publishes, queued events coalesce last-writer-wins per scene key —
// exactly the semantics the LWW document already guarantees, so a slow
// member costs bounded memory (one pending event per live key) and
// still converges.
type pushOutbox struct {
	// wake (capacity 1) tells the connection writer there is something
	// to drain; it is a level signal, not a count.
	wake chan struct{}

	mu     sync.Mutex
	closed bool
	items  []pushItem
	byKey  map[string]int // scene\x00key -> index into items
}

type pushItem struct {
	msg wire.Message
	enq time.Time // when the publisher handed the event over (fan-out stage start)
}

func newPushOutbox() *pushOutbox {
	return &pushOutbox{wake: make(chan struct{}, 1)}
}

// enqueue queues one push frame, replacing any queued frame for the
// same scene key (the newer write supersedes it). Returns false once
// the outbox is closed — the member is gone and delivery is dropped.
func (q *pushOutbox) enqueue(key string, m wire.Message) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	it := pushItem{msg: m, enq: time.Now()}
	if i, ok := q.byKey[key]; ok {
		q.items[i] = it
	} else {
		if q.byKey == nil {
			q.byKey = make(map[string]int)
		}
		q.byKey[key] = len(q.items)
		q.items = append(q.items, it)
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

// drain takes everything queued, in enqueue order.
func (q *pushOutbox) drain() []pushItem {
	q.mu.Lock()
	items := q.items
	q.items = nil
	q.byKey = nil
	q.mu.Unlock()
	return items
}

// close stops accepting pushes; anything already queued may still be
// drained (or not — the connection is going away either way).
func (q *pushOutbox) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// scenePusher converts registry events into MsgSceneEvent frames on the
// member's outbox. Pushed frames are server-minted: RequestID 0 (client
// request IDs start at 1, and the distinct frame type is what clients
// demux on), with the publisher's trace riding the traced trailer.
func scenePusher(out *pushOutbox) scene.Pusher {
	return func(ev scene.Event) bool {
		body, err := (wire.SceneEvent{
			Scene: ev.Scene, Key: ev.Key, Value: ev.Value,
			Seq: ev.Seq, Version: ev.Version, TraceID: ev.Trace,
		}).Marshal()
		if err != nil {
			return false
		}
		return out.enqueue(ev.Scene+"\x00"+ev.Key, wire.Message{Type: wire.MsgSceneEvent, Body: body})
	}
}

// dispatchScene serves one scene request frame (join/publish/leave) for
// the connection; a server without a registry rejects them here rather
// than learning about scenes. It runs on a worker like any other dispatch, after the
// reader has already spent the tenant's admission token — publish rates
// are metered by the same bucket as every other request type.
func (c *conn) dispatchScene(msg wire.Message, tenant string) wire.Message {
	reg := c.scenes
	if reg == nil {
		return errorReply(msg.RequestID, wire.CodeBadRequest, "this server hosts no scenes")
	}
	switch msg.Type {
	case wire.MsgSceneJoin:
		req, err := wire.UnmarshalSceneJoin(msg.Body)
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeBadRequest, "bad scene join: %v", err)
		}
		entries, version, err := reg.Join(tenant, req.Scene, c.id,
			c.srv.Tenants.SceneMemberCap(tenant), scenePusher(c.outbox))
		if err != nil {
			if errors.Is(err, scene.ErrMemberQuota) {
				return errorReply(msg.RequestID, wire.CodeQuotaExceeded, "%v", err)
			}
			return errorReply(msg.RequestID, wire.CodeBadRequest, "scene join: %v", err)
		}
		snap := wire.SceneSnapshot{Scene: req.Scene, Version: version}
		for _, e := range entries {
			snap.Entries = append(snap.Entries, wire.SceneEntry{Key: e.Key, Value: e.Value, Seq: e.Seq})
		}
		body, err := snap.Marshal()
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeInternal, "scene snapshot: %v", err)
		}
		return wire.Message{Type: wire.MsgSceneJoin, RequestID: msg.RequestID, Body: body}

	case wire.MsgScenePublish:
		req, err := wire.UnmarshalScenePublish(msg.Body)
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeBadRequest, "bad scene publish: %v", err)
		}
		seq, version, _, err := reg.Publish(tenant, req.Scene, c.id, req.Key, req.Value, req.TraceID)
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeBadRequest, "scene publish: %v", err)
		}
		body, _ := (wire.ScenePublishAck{Seq: seq, Version: version}).Marshal()
		return wire.Message{Type: wire.MsgScenePublish, RequestID: msg.RequestID, Body: body}

	case wire.MsgSceneLeave:
		req, err := wire.UnmarshalSceneLeave(msg.Body)
		if err != nil {
			return errorReply(msg.RequestID, wire.CodeBadRequest, "bad scene leave: %v", err)
		}
		reg.Leave(tenant, req.Scene, c.id)
		return wire.Message{Type: wire.MsgSceneLeave, RequestID: msg.RequestID}

	default:
		return errorReply(msg.RequestID, wire.CodeInternal, "dispatchScene got %v", msg.Type)
	}
}
