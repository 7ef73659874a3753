package coic

import (
	"context"
	"fmt"
	"sync"

	"github.com/edge-immersion/coic/internal/scene"
	"github.com/edge-immersion/coic/internal/wire"
)

// This file is the collaborative surface: shared-scene sessions. A
// client joins a named, edge-hosted scene and gets back a Scene handle
// holding a local mirror of the room's versioned document — per-key
// last-writer-wins, ordered by edge-assigned sequence numbers. Writes go
// up as publishes; everyone's writes (including the caller's own) come
// down as server-pushed events, the first server-initiated traffic in
// the protocol. Because every update carries its sequence number,
// replays and reorders are harmless: the mirror and the Events channel
// both converge on the newest write per key, no matter the interleaving
// of the join snapshot and concurrent pushes.

// DefaultSceneWindow is the Events channel capacity of a Scene joined
// without WithSceneWindow.
const DefaultSceneWindow = 32

// SceneOption configures a Scene opened by Client.JoinScene.
type SceneOption func(*sceneConfig) error

type sceneConfig struct {
	window int
}

// WithSceneWindow sets the Events channel capacity. When the consumer
// falls behind, pending events coalesce last-writer-wins per key — the
// newest value always gets through, intermediate ones may not.
func WithSceneWindow(n int) SceneOption {
	return func(c *sceneConfig) error {
		if n <= 0 {
			return fmt.Errorf("coic: scene window must be positive, got %d", n)
		}
		c.window = n
		return nil
	}
}

// SceneEntry is one key of a scene document snapshot.
type SceneEntry struct {
	Key   string
	Value []byte
	// Seq is the sequence number of the write that set this key — the
	// entry's slot in the document's version vector.
	Seq uint64
}

// SceneEvent is one scene write delivered to a member: someone (possibly
// the receiver itself) published Key=Value and the edge assigned it Seq.
type SceneEvent struct {
	// Scene is the scene name the write belongs to.
	Scene string
	Key   string
	Value []byte
	// Seq orders this write against every other write in the scene.
	Seq uint64
	// Version is the document version after the write (its highest
	// sequence number).
	Version uint64
	// TraceID is the publishing request's trace, carried through the
	// push so cross-member propagation can be followed in the logs.
	TraceID uint64
}

// Scene is a live membership in an edge-hosted shared scene. The handle
// maintains a local mirror of the scene document, updated from
// server-pushed events on the connection's read loop — current even if
// nobody consumes Events. All methods are safe for concurrent use.
type Scene struct {
	c    *Client
	name string

	// mirror is the local LWW replica; pushes and the join snapshot merge
	// into it by sequence number, so arrival order never matters.
	mirror scene.Doc

	// box coalesces events between the read loop (which must not block)
	// and the pump goroutine feeding the Events channel.
	box    sceneEventBox
	events chan SceneEvent

	closeOnce sync.Once
	closing   chan struct{}
}

// Name reports the scene's name.
func (s *Scene) Name() string { return s.name }

// Events returns the channel scene writes are delivered on, in arrival
// order. Writes the consumer is too slow for coalesce last-writer-wins
// per key; the channel closes when the scene is left or the connection
// dies. The mirror (Snapshot / Version / VersionVector) is updated
// independently of this channel.
func (s *Scene) Events() <-chan SceneEvent { return s.events }

// Snapshot returns the mirror's entries (sorted by key) and version.
func (s *Scene) Snapshot() ([]SceneEntry, uint64) {
	entries, version := s.mirror.Snapshot()
	out := make([]SceneEntry, len(entries))
	for i, e := range entries {
		out[i] = SceneEntry{Key: e.Key, Value: e.Value, Seq: e.Seq}
	}
	return out, version
}

// Version reports the highest sequence number the mirror has seen.
func (s *Scene) Version() uint64 { return s.mirror.Version() }

// VersionVector returns the mirror's per-key sequence map. Two members
// hold the same document exactly when their version vectors are equal.
func (s *Scene) VersionVector() map[string]uint64 { return s.mirror.VersionVector() }

// Publish ships one write to the scene and returns the sequence number
// the edge assigned it. The write lands in the local mirror via its own
// fan-out event — the same path as everyone else's writes — so a
// returned seq may precede the mirror reflecting it by one push latency.
func (s *Scene) Publish(ctx context.Context, key string, value []byte) (uint64, error) {
	body, err := (wire.ScenePublish{Scene: s.name, Key: key, Value: value, TraceID: mintTraceID()}).Marshal()
	if err != nil {
		return 0, err
	}
	reply, err := s.c.mux.RoundTrip(ctx, wire.Message{Type: wire.MsgScenePublish, Body: body})
	if err != nil {
		return 0, mapRemoteErr(err)
	}
	ack, err := wire.UnmarshalScenePublishAck(reply.Body)
	if err != nil {
		return 0, err
	}
	return ack.Seq, nil
}

// Leave tells the edge to drop this membership (the room is
// garbage-collected when its last member leaves) and closes the Events
// channel. Leaving twice is a no-op. The mirror remains readable.
func (s *Scene) Leave(ctx context.Context) error {
	s.c.forgetScene(s.name)
	var rtErr error
	s.closeOnce.Do(func() {
		body, err := (wire.SceneLeave{Scene: s.name}).Marshal()
		if err == nil {
			_, err = s.c.mux.RoundTrip(ctx, wire.Message{Type: wire.MsgSceneLeave, Body: body})
		}
		rtErr = mapRemoteErr(err)
		close(s.closing)
	})
	return rtErr
}

// closeLocal tears the handle down without a server round trip — the
// connection is gone, so membership dies with it (the edge's disconnect
// sweep handles the room side).
func (s *Scene) closeLocal() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// pump moves coalesced events from the box to the Events channel. It is
// the only sender on (and closer of) s.events.
func (s *Scene) pump() {
	defer close(s.events)
	for {
		select {
		case <-s.box.wake:
			for _, ev := range s.box.drain() {
				select {
				case s.events <- ev:
				case <-s.closing:
					return
				}
			}
		case <-s.closing:
			return
		}
	}
}

// sceneEventBox decouples the connection read loop from the Events
// consumer: enqueue never blocks, and events queued behind a slow
// consumer coalesce last-writer-wins per key — bounded memory, same
// convergence the document itself guarantees.
type sceneEventBox struct {
	wake chan struct{} // capacity 1; level signal to the pump

	mu    sync.Mutex
	items []SceneEvent
	byKey map[string]int
}

func (b *sceneEventBox) enqueue(ev SceneEvent) {
	b.mu.Lock()
	if i, ok := b.byKey[ev.Key]; ok {
		b.items[i] = ev
	} else {
		if b.byKey == nil {
			b.byKey = make(map[string]int)
		}
		b.byKey[ev.Key] = len(b.items)
		b.items = append(b.items, ev)
	}
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

func (b *sceneEventBox) drain() []SceneEvent {
	b.mu.Lock()
	items := b.items
	b.items = nil
	b.byKey = nil
	b.mu.Unlock()
	return items
}

// JoinScene joins (creating on first join) the named scene on the
// connection's tenant and returns its handle, seeded with the room's
// current document. Scene names are scoped per tenant — two tenants'
// "lobby" scenes never meet. Joining counts against the tenant's
// scene-member quota when one is configured (TenantConfig.SceneMembers), failing
// with ErrQuotaExceeded beyond it. A client may join many scenes; one
// JoinScene per scene per connection (rejoining an open handle's scene
// is an error until it is left).
func (c *Client) JoinScene(ctx context.Context, name string, opts ...SceneOption) (*Scene, error) {
	cfg := sceneConfig{window: DefaultSceneWindow}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	s := &Scene{
		c:       c,
		name:    name,
		events:  make(chan SceneEvent, cfg.window),
		closing: make(chan struct{}),
	}
	s.box.wake = make(chan struct{}, 1)

	// Register the handle before the join frame ships: the join reply
	// (snapshot) and the first pushed events race on the wire, and the
	// LWW mirror makes either order correct — but only if the events
	// have somewhere to land.
	c.sceneMu.Lock()
	if c.scenes == nil {
		c.scenes = make(map[string]*Scene)
		c.mux.SetPushHandler(c.handleScenePush, c.handleSceneConnClose)
	}
	if _, dup := c.scenes[name]; dup {
		c.sceneMu.Unlock()
		return nil, fmt.Errorf("coic: scene %q already joined", name)
	}
	c.scenes[name] = s
	c.sceneMu.Unlock()
	go s.pump()

	fail := func(err error) (*Scene, error) {
		c.forgetScene(name)
		s.closeLocal()
		return nil, err
	}
	body, err := (wire.SceneJoin{Scene: name, TraceID: mintTraceID()}).Marshal()
	if err != nil {
		return fail(err)
	}
	reply, err := c.mux.RoundTrip(ctx, wire.Message{Type: wire.MsgSceneJoin, Body: body})
	if err != nil {
		return fail(mapRemoteErr(err))
	}
	snap, err := wire.UnmarshalSceneSnapshot(reply.Body)
	if err != nil {
		return fail(fmt.Errorf("coic: bad scene snapshot: %w", err))
	}
	for _, e := range snap.Entries {
		s.mirror.Apply(e.Key, e.Value, e.Seq)
	}
	return s, nil
}

// handleScenePush runs on the connection read loop for every pushed
// MsgSceneEvent: merge into the scene's mirror (cheap, lock-guarded map
// write) and hand the event to the pump. Must not block.
func (c *Client) handleScenePush(msg wire.Message) {
	ev, err := wire.UnmarshalSceneEvent(msg.Body)
	if err != nil {
		return // a malformed push poisons nothing; drop it
	}
	c.sceneMu.Lock()
	s := c.scenes[ev.Scene]
	c.sceneMu.Unlock()
	if s == nil {
		return // pushed after a local leave raced the server's; stale
	}
	s.mirror.Apply(ev.Key, ev.Value, ev.Seq)
	s.box.enqueue(SceneEvent{
		Scene: ev.Scene, Key: ev.Key, Value: ev.Value,
		Seq: ev.Seq, Version: ev.Version, TraceID: ev.TraceID,
	})
}

// handleSceneConnClose tears down every open scene when the connection
// dies: Events channels close, mirrors stay readable.
func (c *Client) handleSceneConnClose() {
	c.sceneMu.Lock()
	scenes := make([]*Scene, 0, len(c.scenes))
	for _, s := range c.scenes {
		scenes = append(scenes, s)
	}
	c.scenes = nil
	c.sceneMu.Unlock()
	for _, s := range scenes {
		s.closeLocal()
	}
}

func (c *Client) forgetScene(name string) {
	c.sceneMu.Lock()
	delete(c.scenes, name)
	c.sceneMu.Unlock()
}
