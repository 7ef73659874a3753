package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Protocol constants.
const (
	Magic      = uint16(0x4943)
	Version    = 1
	HeaderSize = 2 + 1 + 1 + 8 + 4 + 4
	// MaxBody bounds a frame body; a 15 MB model plus headroom. Frames
	// beyond it are rejected before allocation so a corrupt length field
	// cannot OOM the edge.
	MaxBody = 64 << 20
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types. Values are on the wire; never reorder.
const (
	MsgProbe      MsgType = 1  // client->edge: descriptor lookup
	MsgProbeReply MsgType = 2  // edge->client: hit/miss (+result on hit)
	MsgExec       MsgType = 3  // client->edge->cloud: execute IC task
	MsgExecReply  MsgType = 4  // cloud->edge->client: task result
	MsgModelFetch MsgType = 5  // fetch a 3D model
	MsgModelReply MsgType = 6  // model bytes
	MsgPanoFetch  MsgType = 7  // fetch a panoramic frame
	MsgPanoReply  MsgType = 8  // panorama bytes
	MsgError      MsgType = 9  // error reply
	MsgHello      MsgType = 10 // connection preamble (role announcement)

	// Edge federation (edge<->edge). Peer lookups are local-only at the
	// receiving edge: a peer never re-forwards to its own peers or to the
	// cloud, so federated lookups cannot loop or amplify.
	MsgPeerLookup MsgType = 11 // edge->edge: probe a peer's cache
	MsgPeerReply  MsgType = 12 // edge->edge: probe answer (+result on hit)
	MsgPeerInsert MsgType = 13 // edge->edge: publish a result to the key's home edge

	// MsgCancel aborts an in-flight request on the same connection. The
	// body names the target RequestID; the frame's own RequestID is the
	// cancel's identity and is echoed back as an ack (like MsgHello), so
	// the cancel keeps its place in the connection's reply order. The
	// cancelled request still produces its own reply — MsgError with
	// CodeCanceled when the cancel landed in time, or its normal result if
	// it had already completed. Client->edge aborts a served request;
	// edge->cloud aborts a forwarded fetch whose last coalesced waiter
	// departed.
	MsgCancel MsgType = 14

	// Shared scenes (client<->edge). A scene is an edge-hosted room whose
	// members mirror one versioned per-key document; MsgSceneEvent is the
	// protocol's only server-initiated frame, pushed by the edge to every
	// member when any member publishes. Pushes are delivered only on
	// connections that negotiated HelloFlagUnordered — positional clients
	// (and every version-0 hello) count replies by arrival order and never
	// receive them.
	MsgSceneJoin    MsgType = 15 // client->edge: join a named scene (reply: snapshot)
	MsgScenePublish MsgType = 16 // client->edge: LWW write into the scene document (reply: ack)
	MsgSceneEvent   MsgType = 17 // edge->client: server-push scene delta fan-out
	MsgSceneLeave   MsgType = 18 // client->edge: leave the scene (reply: echo)

	// Federation membership (edge<->edge). SWIM-lite gossip: every frame
	// carries the sender's full epoch-versioned member list (Membership),
	// and every recipient merges it and answers member-ack with its own,
	// so any exchange is bidirectional anti-entropy. Like the peer frames,
	// membership frames are local-only — a recipient never re-forwards
	// them — and carry no QoS trailer.
	MsgMemberPing   MsgType = 19 // edge->edge: liveness probe + state exchange
	MsgMemberAck    MsgType = 20 // edge->edge: ping/gossip/leave answer with own state
	MsgMemberGossip MsgType = 21 // edge->edge: unsolicited state push (join announcement)
	MsgMemberLeave  MsgType = 22 // edge->edge: graceful departure (sender marked dead)
)

// HelloFlagUnordered, carried in Hello.Flags (the second body byte of a
// legacy version-0 hello), asks the server to write replies in
// completion order instead of arrival order. Only clients that match
// replies to requests by RequestID (the demultiplexed streaming client,
// the edge's upstream mux) may set it; positional clients rely on
// arrival order. The flag is honoured only on a connection's first
// frame — a later mode-switch hello cannot strand replies parked in the
// reorder buffer.
const HelloFlagUnordered uint8 = 1 << 0

// frameType is one row of the frame-type table.
type frameType struct {
	name string // String(), and the type's key in docs and golden files
	// peek, set for the request types whose body ends in the scheduling
	// trailer, skips through a body by the type's field description and
	// returns the trailer it ends on (see PeekQoS).
	peek func(body []byte) peeked
}

// frameTypes is the one list of protocol frame types, indexed by wire
// value: AllMsgTypes, String and the trailer peekers all read it, so a
// new frame is one row here (plus its golden body — TestGoldenBodies
// fails for a row without one).
var frameTypes = [...]frameType{
	MsgProbe:      {name: "probe"},
	MsgProbeReply: {name: "probe-reply"},
	MsgExec:       {"exec", func(b []byte) peeked { c := skipper(b); new(ExecRequest).fields(&c); return c.trailerSeen() }},
	MsgExecReply:  {name: "exec-reply"},
	MsgModelFetch: {"model-fetch", func(b []byte) peeked { c := skipper(b); new(ModelFetch).fields(&c); return c.trailerSeen() }},
	MsgModelReply: {name: "model-reply"},
	MsgPanoFetch:  {"pano-fetch", func(b []byte) peeked { c := skipper(b); new(PanoFetch).fields(&c); return c.trailerSeen() }},
	MsgPanoReply:  {name: "pano-reply"},
	MsgError:      {name: "error"},
	MsgHello:      {name: "hello"},
	MsgPeerLookup: {name: "peer-lookup"},
	MsgPeerReply:  {name: "peer-reply"},
	MsgPeerInsert: {name: "peer-insert"},
	MsgCancel:     {name: "cancel"},

	MsgSceneJoin:    {"scene-join", func(b []byte) peeked { c := skipper(b); new(SceneJoin).fields(&c); return c.trailerSeen() }},
	MsgScenePublish: {"scene-publish", func(b []byte) peeked { c := skipper(b); new(ScenePublish).fields(&c); return c.trailerSeen() }},
	MsgSceneEvent:   {"scene-event", func(b []byte) peeked { c := skipper(b); new(SceneEvent).fields(&c); return c.trailerSeen() }},
	MsgSceneLeave:   {"scene-leave", func(b []byte) peeked { c := skipper(b); new(SceneLeave).fields(&c); return c.trailerSeen() }},

	MsgMemberPing:   {name: "member-ping"},
	MsgMemberAck:    {name: "member-ack"},
	MsgMemberGossip: {name: "member-gossip"},
	MsgMemberLeave:  {name: "member-leave"},
}

// AllMsgTypes is the canonical list of every protocol frame type, in wire
// order. Tests iterate it so a new frame cannot ship without a String
// name and round-trip coverage.
func AllMsgTypes() []MsgType {
	all := make([]MsgType, 0, len(frameTypes)-1)
	for t := range frameTypes {
		if frameTypes[t].name != "" {
			all = append(all, MsgType(t))
		}
	}
	return all
}

// String names the message type for logs.
func (t MsgType) String() string {
	if int(t) < len(frameTypes) && frameTypes[t].name != "" {
		return frameTypes[t].name
	}
	return fmt.Sprintf("unknown(%d)", uint8(t))
}

// Message is one protocol frame.
type Message struct {
	Type      MsgType
	RequestID uint64
	Body      []byte
}

// WireSize reports the frame's on-the-wire size; the analytic network
// simulation charges exactly this many bytes.
func (m Message) WireSize() int { return HeaderSize + len(m.Body) }

// Framing errors.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTooBig     = errors.New("wire: frame exceeds MaxBody")
	ErrBadCRC     = errors.New("wire: body CRC mismatch")
)

// Encode renders the full frame into a fresh buffer.
func (m Message) Encode() ([]byte, error) {
	if len(m.Body) > MaxBody {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooBig, len(m.Body))
	}
	buf := make([]byte, m.WireSize())
	m.encodeInto(buf)
	return buf, nil
}

// encodeInto renders the frame into buf, which holds exactly WireSize
// bytes: the one header writer behind Encode and WriteMessage.
func (m Message) encodeInto(buf []byte) {
	binary.LittleEndian.PutUint16(buf[0:], Magic)
	buf[2] = Version
	buf[3] = byte(m.Type)
	binary.LittleEndian.PutUint64(buf[4:], m.RequestID)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(m.Body)))
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(m.Body))
	copy(buf[HeaderSize:], m.Body)
}

// pooledWriteMin is the smallest frame WriteMessage encodes into a
// recycled buffer instead of a fresh one: camera frames and model or
// panorama replies, not control frames.
const pooledWriteMin = 32 << 10

// writeBufs recycles WriteMessage's encode buffers (*[]byte). A buffer
// too small for a frame is dropped and replaced, not grown.
var writeBufs sync.Pool

// WriteMessage frames and writes m with a single Write call, so
// per-message shaping (netsim.Shaper) observes message granularity.
// Frames of at least pooledWriteMin bytes are encoded into a recycled
// buffer, reused as soon as Write returns: io.Writer's contract forbids
// keeping p.
func WriteMessage(w io.Writer, m Message) error {
	if n := m.WireSize(); n >= pooledWriteMin && len(m.Body) <= MaxBody {
		p, _ := writeBufs.Get().(*[]byte)
		if p == nil || cap(*p) < n {
			b := make([]byte, n)
			p = &b
		}
		buf := (*p)[:n]
		m.encodeInto(buf)
		_, err := w.Write(buf)
		writeBufs.Put(p)
		return err
	}
	buf, err := m.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadMessage reads and verifies one frame into a fresh body, which
// belongs to the caller and to whatever is decoded from it. Body
// allocation is bounded by MaxBody. io.EOF is returned unwrapped when the
// stream ends cleanly between frames.
func ReadMessage(r io.Reader) (Message, error) { return ReadMessageInto(r, nil) }

// ReadMessageInto reads and verifies one frame like ReadMessage, but
// takes the body's buffer from its caller: once the header has been
// checked, body is asked for a buffer for the frame's type and body
// length n, and the body is read into its first n bytes. A nil body or
// buffer, or one whose capacity is under n, means a fresh allocation. The
// returned Body has its capacity clipped to n, so no byte of the
// buffer's earlier use is reachable through it; when the read fails the
// buffer is still the caller's to recycle.
func ReadMessageInto(r io.Reader, body func(t MsgType, n int) []byte) (Message, error) {
	var hdr [HeaderSize]byte // escapes into r: one small allocation per frame
	return readMessage(r, &hdr, body)
}

// Reader reads a stream's frames with a header buffer that lives as long
// as it does, so that a connection's read loop allocates nothing per
// frame beyond the bodies its caller does not supply. One goroutine reads
// through it at a time.
type Reader struct {
	r   io.Reader
	hdr [HeaderSize]byte
}

// NewReader reads frames off r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// ReadMessage is the package's ReadMessage, off the reader's stream.
func (rd *Reader) ReadMessage() (Message, error) { return readMessage(rd.r, &rd.hdr, nil) }

// ReadMessageInto is the package's ReadMessageInto, off the reader's
// stream.
func (rd *Reader) ReadMessageInto(body func(t MsgType, n int) []byte) (Message, error) {
	return readMessage(rd.r, &rd.hdr, body)
}

// readMessage is the one frame reader behind ReadMessageInto and Reader,
// with hdr as its header scratch.
func readMessage(r io.Reader, hdr *[HeaderSize]byte, body func(t MsgType, n int) []byte) (Message, error) {
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Message{}, err // clean EOF stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Message{}, fmt.Errorf("wire: short header: %w", err)
	}
	if binary.LittleEndian.Uint16(hdr[0:]) != Magic {
		return Message{}, ErrBadMagic
	}
	if hdr[2] != Version {
		return Message{}, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	m := Message{
		Type:      MsgType(hdr[3]),
		RequestID: binary.LittleEndian.Uint64(hdr[4:]),
	}
	n := binary.LittleEndian.Uint32(hdr[12:])
	if n > MaxBody {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrTooBig, n)
	}
	wantCRC := binary.LittleEndian.Uint32(hdr[16:])
	var buf []byte
	if body != nil {
		buf = body(m.Type, int(n))
	}
	if buf == nil || cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	m.Body = buf[:n:n]
	if _, err := io.ReadFull(r, m.Body); err != nil {
		return Message{}, fmt.Errorf("wire: short body: %w", err)
	}
	if crc32.ChecksumIEEE(m.Body) != wantCRC {
		return Message{}, ErrBadCRC
	}
	return m, nil
}
