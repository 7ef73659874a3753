package wire

// Shared-scene bodies. A scene is an edge-hosted room: members join by
// name, publish per-key values into a shared document, and the edge fans
// every applied write back out to all members as MsgSceneEvent pushes.
// The document is CRDT-lite — per-key last-writer-wins ordered by a
// monotonic sequence number the edge assigns at publish time — so
// event replays and reorders are safe to apply on any mirror.
//
// The request frames (join, publish, leave) carry the standard QoS/trace
// trailer and flow through the scheduler like any other request. The
// pushed MsgSceneEvent reuses the traced trailer form so clients can log
// the originating publish's trace ID without decoding the payload.

// SceneJoin asks the edge to add this connection to a named scene. The
// reply is a SceneSnapshot of the scene document at join time; every
// write after the snapshot arrives as a MsgSceneEvent push.
type SceneJoin struct {
	Scene    string
	QoS      QoS
	Deadline int64
	TraceID  uint64
}

func (s *SceneJoin) fields(c *cursor) {
	c.str16(&s.Scene)
	c.trailer(&s.QoS, &s.Deadline, &s.TraceID)
}

// Marshal encodes the body.
func (s SceneJoin) Marshal() ([]byte, error) {
	var c cursor
	s.fields(&c)
	s.fields(c.encoder())
	return c.bytes()
}

// UnmarshalSceneJoin decodes a SceneJoin body.
func UnmarshalSceneJoin(body []byte) (s SceneJoin, err error) {
	c := decoder("scene-join", body)
	s.fields(&c)
	return s, c.end()
}

// SceneLeave removes this connection from a scene it joined. The reply
// is an empty echo; events stop once the leave is applied (pushes
// already queued on the connection may still drain after it).
type SceneLeave struct {
	Scene    string
	QoS      QoS
	Deadline int64
	TraceID  uint64
}

func (s *SceneLeave) fields(c *cursor) {
	c.str16(&s.Scene)
	c.trailer(&s.QoS, &s.Deadline, &s.TraceID)
}

// Marshal encodes the body.
func (s SceneLeave) Marshal() ([]byte, error) {
	var c cursor
	s.fields(&c)
	s.fields(c.encoder())
	return c.bytes()
}

// UnmarshalSceneLeave decodes a SceneLeave body.
func UnmarshalSceneLeave(body []byte) (s SceneLeave, err error) {
	c := decoder("scene-leave", body)
	s.fields(&c)
	return s, c.end()
}

// ScenePublish writes one key of the scene document. The edge applies it
// last-writer-wins (assigning the next scene sequence number), fans a
// SceneEvent out to every member, and replies with a ScenePublishAck.
type ScenePublish struct {
	Scene    string
	Key      string
	Value    []byte
	QoS      QoS
	Deadline int64
	TraceID  uint64
}

func (s *ScenePublish) fields(c *cursor) {
	c.str16(&s.Scene)
	c.str16(&s.Key)
	c.blob(&s.Value)
	c.trailer(&s.QoS, &s.Deadline, &s.TraceID)
}

// Marshal encodes the body.
func (s ScenePublish) Marshal() ([]byte, error) {
	var c cursor
	s.fields(&c)
	s.fields(c.encoder())
	return c.bytes()
}

// UnmarshalScenePublish decodes a ScenePublish body. Value aliases body.
func UnmarshalScenePublish(body []byte) (s ScenePublish, err error) {
	c := decoder("scene-publish", body)
	s.fields(&c)
	return s, c.end()
}

// ScenePublishAck answers a ScenePublish: the sequence number the write
// was assigned and the scene document version after applying it (for
// this single-writer-ordered document the two coincide; both are kept on
// the wire so the ack stays meaningful if versioning ever diverges).
type ScenePublishAck struct {
	Seq     uint64
	Version uint64
}

func (a *ScenePublishAck) fields(c *cursor) {
	c.u64(&a.Seq)
	c.u64(&a.Version)
}

// Marshal encodes the body.
func (a ScenePublishAck) Marshal() ([]byte, error) {
	var c cursor
	a.fields(&c)
	a.fields(c.encoder())
	return c.bytes()
}

// UnmarshalScenePublishAck decodes a ScenePublishAck body.
func UnmarshalScenePublishAck(body []byte) (a ScenePublishAck, err error) {
	c := decoder("scene-publish-ack", body)
	a.fields(&c)
	return a, c.end()
}

// SceneEvent is one applied write, pushed by the edge to every scene
// member (including the publisher, so one code path converges every
// mirror). Seq orders the write: a mirror applies the event only when
// Seq exceeds the key's current sequence, which makes replays and
// reorders harmless. Version is the scene document version after this
// write. The publisher's trace ID rides the traced trailer.
type SceneEvent struct {
	Scene   string
	Key     string
	Value   []byte
	Seq     uint64
	Version uint64
	QoS     QoS
	TraceID uint64
}

// The pushed event has no deadline: the trailer's deadline slot is
// written as zero and ignored on receipt.
func (e *SceneEvent) fields(c *cursor) {
	var deadline int64
	c.str16(&e.Scene)
	c.str16(&e.Key)
	c.blob(&e.Value)
	c.u64(&e.Seq)
	c.u64(&e.Version)
	c.trailer(&e.QoS, &deadline, &e.TraceID)
}

// Marshal encodes the body.
func (e SceneEvent) Marshal() ([]byte, error) {
	var c cursor
	e.fields(&c)
	e.fields(c.encoder())
	return c.bytes()
}

// UnmarshalSceneEvent decodes a SceneEvent body. Value aliases body.
func UnmarshalSceneEvent(body []byte) (e SceneEvent, err error) {
	c := decoder("scene-event", body)
	e.fields(&c)
	return e, c.end()
}

// SceneEntry is one key of a snapshotted scene document.
type SceneEntry struct {
	Key   string
	Value []byte
	Seq   uint64
}

// SceneSnapshot is the reply to a SceneJoin: the whole scene document at
// the instant the member was added. The member seeds its mirror from the
// entries and then applies pushed events LWW — because both paths compare
// sequence numbers, an event racing past the snapshot is harmless in
// either order.
type SceneSnapshot struct {
	Scene   string
	Version uint64
	Entries []SceneEntry
}

// minSceneEntry is the encoded size of an entry with an empty key and
// value: keyLen u16 | valueLen u32 | seq u64.
const minSceneEntry = 2 + 4 + 8

func (s *SceneSnapshot) fields(c *cursor) {
	c.str16(&s.Scene)
	c.u64(&s.Version)
	entries := repeat(c, 4, &s.Entries, minSceneEntry)
	for i := range entries {
		e := &entries[i]
		c.str16(&e.Key)
		c.blob(&e.Value)
		c.u64(&e.Seq)
	}
}

// Marshal encodes the body.
func (s SceneSnapshot) Marshal() ([]byte, error) {
	var c cursor
	s.fields(&c)
	s.fields(c.encoder())
	return c.bytes()
}

// UnmarshalSceneSnapshot decodes a SceneSnapshot body. Each entry's Value aliases body.
func UnmarshalSceneSnapshot(body []byte) (s SceneSnapshot, err error) {
	c := decoder("scene-snapshot", body)
	s.fields(&c)
	return s, c.end()
}
