package wire

import (
	"errors"
	"fmt"

	"github.com/edge-immersion/coic/internal/feature"
)

// Task identifies which IC workload a request belongs to.
type Task uint8

// IC task kinds (wire values).
const (
	TaskRecognize Task = 1
	TaskRender    Task = 2
	TaskPano      Task = 3
)

// String names the task.
func (t Task) String() string {
	switch t {
	case TaskRecognize:
		return "recognize"
	case TaskRender:
		return "render"
	case TaskPano:
		return "pano"
	default:
		return fmt.Sprintf("task(%d)", uint8(t))
	}
}

// Model formats for MsgModelFetch/MsgModelReply.
const (
	FormatOBJX uint8 = 1 // text source format (cloud repository)
	FormatCMF  uint8 = 2 // binary runtime format (edge cache)
)

// QoS is a request's service class. Classes are strict priorities at the
// serving tiers: every queued interactive request is dispatched before
// any best-effort one, and within a class requests run
// earliest-deadline-first.
type QoS uint8

// Service classes (wire values). Zero is best-effort so frames from
// clients that predate the QoS trailer keep their old scheduling.
const (
	QoSBestEffort  QoS = 0
	QoSInteractive QoS = 1

	// NumQoSClasses bounds the class space; the scheduler allocates one
	// queue per class.
	NumQoSClasses = 2
)

// String names the class for logs and tables.
func (q QoS) String() string {
	switch q {
	case QoSBestEffort:
		return "best-effort"
	case QoSInteractive:
		return "interactive"
	default:
		return fmt.Sprintf("qos(%d)", uint8(q))
	}
}

// PeekQoS extracts the scheduling metadata — service class and absolute
// deadline in unix microseconds (0 = none) — from a request body without
// decoding the payload, so the serving tiers can order and shed queued
// work cheaply. Message types that carry no trailer, and malformed
// bodies (the dispatcher will reject them anyway), read as best-effort
// with no deadline.
func PeekQoS(t MsgType, body []byte) (QoS, int64) {
	p := peek(t, body)
	return p.class, p.deadline
}

// PeekTrace extracts the client-minted trace ID from a request body
// without decoding the payload, for log correlation on the serving hot
// path. Requests without the traced trailer (and malformed bodies) read
// as 0.
func PeekTrace(t MsgType, body []byte) uint64 {
	return peek(t, body).trace
}

// peek skips through body by its frame type's field description to the
// trailer; a type that carries none has nothing to peek at.
func peek(t MsgType, body []byte) peeked {
	if int(t) >= len(frameTypes) || frameTypes[t].peek == nil {
		return peeked{}
	}
	return frameTypes[t].peek(body)
}

// Cache outcomes carried in ProbeReply.
const (
	ProbeMiss    uint8 = 0
	ProbeExact   uint8 = 1
	ProbeSimilar uint8 = 2
)

// ErrBadMessage is wrapped by all body decode failures.
var ErrBadMessage = errors.New("wire: malformed message body")

// ProbeRequest asks the edge whether a descriptor's result is cached.
type ProbeRequest struct {
	Task Task
	Desc feature.Descriptor
}

func (p *ProbeRequest) fields(c *cursor) {
	c.u8((*uint8)(&p.Task))
	c.desc(&p.Desc)
}

// Marshal encodes the body.
func (p ProbeRequest) Marshal() ([]byte, error) {
	var c cursor
	p.fields(&c)
	p.fields(c.encoder())
	return c.bytes()
}

// UnmarshalProbeRequest decodes a ProbeRequest body.
func UnmarshalProbeRequest(body []byte) (p ProbeRequest, err error) {
	c := decoder("probe", body)
	p.fields(&c)
	return p, c.end()
}

// ProbeReply answers a probe; Result is present only on a hit.
type ProbeReply struct {
	Outcome  uint8
	Distance float64 // descriptor distance for similar hits
	Result   []byte
}

func (p *ProbeReply) fields(c *cursor) {
	c.u8(&p.Outcome)
	c.f64(&p.Distance)
	c.blob(&p.Result)
}

// Marshal encodes the body.
func (p ProbeReply) Marshal() ([]byte, error) {
	var c cursor
	p.fields(&c)
	p.fields(c.encoder())
	return c.bytes()
}

// UnmarshalProbeReply decodes a ProbeReply body. Result aliases body.
func UnmarshalProbeReply(body []byte) (p ProbeReply, err error) {
	c := decoder("probe-reply", body)
	p.fields(&c)
	return p, c.end()
}

// PeerLookup is the edge-to-edge flavour of ProbeRequest: one federated
// edge asking another whether a descriptor's result is cached there. It
// is a distinct message type (not a reused MsgProbe) so the receiving
// edge knows to answer from its local cache only — never re-forwarding to
// its own peers or the cloud — which is what keeps federated lookups to a
// single hop.
type PeerLookup struct {
	Task Task
	Desc feature.Descriptor
}

func (p *PeerLookup) fields(c *cursor) {
	c.u8((*uint8)(&p.Task))
	c.desc(&p.Desc)
}

// Marshal encodes the body.
func (p PeerLookup) Marshal() ([]byte, error) {
	var c cursor
	p.fields(&c)
	p.fields(c.encoder())
	return c.bytes()
}

// UnmarshalPeerLookup decodes a PeerLookup body.
func UnmarshalPeerLookup(body []byte) (p PeerLookup, err error) {
	c := decoder("peer-lookup", body)
	p.fields(&c)
	return p, c.end()
}

// PeerReply answers a PeerLookup; Result is present only on a hit. It
// also acknowledges a PeerInsert (Outcome ProbeMiss, empty Result).
type PeerReply struct {
	Outcome  uint8   // ProbeMiss / ProbeExact / ProbeSimilar
	Distance float64 // descriptor distance for similar hits
	Result   []byte
}

func (p *PeerReply) fields(c *cursor) {
	c.u8(&p.Outcome)
	c.f64(&p.Distance)
	c.blob(&p.Result)
}

// Marshal encodes the body.
func (p PeerReply) Marshal() ([]byte, error) {
	var c cursor
	p.fields(&c)
	p.fields(c.encoder())
	return c.bytes()
}

// UnmarshalPeerReply decodes a PeerReply body. Result aliases body.
func UnmarshalPeerReply(body []byte) (p PeerReply, err error) {
	c := decoder("peer-reply", body)
	p.fields(&c)
	return p, c.end()
}

// PeerInsert publishes a computed result to the descriptor's home edge
// (consistent-hash owner), so any edge in the federation can later
// resolve the key in one peer hop. Cost carries the recomputation-cost
// hint for the receiving cache's eviction policy. There is deliberately
// no task field: the descriptor alone identifies the cached computation,
// and the receiver adopts it without task-level accounting.
type PeerInsert struct {
	Desc  feature.Descriptor
	Cost  float64
	Value []byte
}

func (p *PeerInsert) fields(c *cursor) {
	c.f64(&p.Cost)
	c.desc(&p.Desc)
	c.blob(&p.Value)
}

// Marshal encodes the body.
func (p PeerInsert) Marshal() ([]byte, error) {
	var c cursor
	p.fields(&c)
	p.fields(c.encoder())
	return c.bytes()
}

// UnmarshalPeerInsert decodes a PeerInsert body. Value aliases body.
func UnmarshalPeerInsert(body []byte) (p PeerInsert, err error) {
	c := decoder("peer-insert", body)
	p.fields(&c)
	return p, c.end()
}

// ExecRequest carries a full IC task: the input payload plus the
// descriptor so the edge can insert the eventual result into its cache.
// QoS and Deadline ride in an optional trailer (see PeekQoS); a
// zero-valued pair encodes to the pre-QoS body layout.
type ExecRequest struct {
	Task    Task
	Desc    feature.Descriptor
	Payload []byte
	// QoS is the request's service class at the edge and cloud queues.
	QoS QoS
	// Deadline, when non-zero, is the absolute wall-clock instant (unix
	// microseconds UTC) after which the result is useless; serving tiers
	// shed the request from their queues once it passes.
	Deadline int64
	// TraceID, when non-zero, is the client-minted identifier logged by
	// every tier the request crosses (client, edge, cloud) so one slow
	// frame can be correlated across their logs. It rides the traced form
	// of the trailer; zero marshals to the short form.
	TraceID uint64
}

func (e *ExecRequest) fields(c *cursor) {
	c.u8((*uint8)(&e.Task))
	c.desc(&e.Desc)
	c.blob(&e.Payload)
	c.trailer(&e.QoS, &e.Deadline, &e.TraceID)
}

// Marshal encodes the body.
func (e ExecRequest) Marshal() ([]byte, error) {
	var c cursor
	e.fields(&c)
	e.fields(c.encoder())
	return c.bytes()
}

// UnmarshalExecRequest decodes an ExecRequest body. Payload aliases body.
func UnmarshalExecRequest(body []byte) (e ExecRequest, err error) {
	c := decoder("exec", body)
	e.fields(&c)
	return e, c.end()
}

// Result sources carried in ExecReply.
const (
	SourceCloud uint8 = 1
	SourceEdge  uint8 = 2
)

// ExecReply returns a task result.
type ExecReply struct {
	Source uint8
	Result []byte
}

func (e *ExecReply) fields(c *cursor) {
	c.u8(&e.Source)
	c.blob(&e.Result)
}

// Marshal encodes the body.
func (e ExecReply) Marshal() ([]byte, error) {
	var c cursor
	e.fields(&c)
	e.fields(c.encoder())
	return c.bytes()
}

// Size is the length of the encoded body, from its layout alone.
func (e ExecReply) Size() int {
	var c cursor
	e.fields(&c)
	return c.n
}

// AppendTo appends the encoded body to dst, which only reallocates when
// dst has less than Size bytes of spare capacity.
func (e ExecReply) AppendTo(dst []byte) ([]byte, error) {
	c := cursor{mode: encoding, buf: dst}
	e.fields(&c)
	return c.bytes()
}

// UnmarshalExecReply decodes an ExecReply body. Result aliases body.
func UnmarshalExecReply(body []byte) (e ExecReply, err error) {
	c := decoder("exec-reply", body)
	e.fields(&c)
	return e, c.end()
}

// ModelFetch requests a 3D model in a given format. QoS and Deadline are
// the optional scheduling trailer (see ExecRequest).
type ModelFetch struct {
	ModelID  string
	Format   uint8
	QoS      QoS
	Deadline int64
	TraceID  uint64
}

func (m *ModelFetch) fields(c *cursor) {
	c.u8(&m.Format)
	c.str16(&m.ModelID)
	c.trailer(&m.QoS, &m.Deadline, &m.TraceID)
}

// Marshal encodes the body.
func (m ModelFetch) Marshal() ([]byte, error) {
	var c cursor
	m.fields(&c)
	m.fields(c.encoder())
	return c.bytes()
}

// UnmarshalModelFetch decodes a ModelFetch body.
func UnmarshalModelFetch(body []byte) (m ModelFetch, err error) {
	c := decoder("model-fetch", body)
	m.fields(&c)
	return m, c.end()
}

// ModelReply carries model bytes in the named format.
type ModelReply struct {
	Format uint8
	Source uint8 // SourceCloud or SourceEdge
	Data   []byte
}

func (m *ModelReply) fields(c *cursor) {
	c.u8(&m.Format)
	c.u8(&m.Source)
	c.blob(&m.Data)
}

// Marshal encodes the body.
func (m ModelReply) Marshal() ([]byte, error) {
	var c cursor
	m.fields(&c)
	m.fields(c.encoder())
	return c.bytes()
}

// Size is the length of the encoded body, from its layout alone.
func (m ModelReply) Size() int {
	var c cursor
	m.fields(&c)
	return c.n
}

// AppendTo appends the encoded body to dst, which only reallocates when
// dst has less than Size bytes of spare capacity.
func (m ModelReply) AppendTo(dst []byte) ([]byte, error) {
	c := cursor{mode: encoding, buf: dst}
	m.fields(&c)
	return c.bytes()
}

// UnmarshalModelReply decodes a ModelReply body. Data aliases body.
func UnmarshalModelReply(body []byte) (m ModelReply, err error) {
	c := decoder("model-reply", body)
	m.fields(&c)
	return m, c.end()
}

// PanoFetch requests one panoramic frame of a VR video. QoS and Deadline
// are the optional scheduling trailer (see ExecRequest).
type PanoFetch struct {
	VideoID    string
	FrameIndex uint32
	QoS        QoS
	Deadline   int64
	TraceID    uint64
}

func (p *PanoFetch) fields(c *cursor) {
	c.u32(&p.FrameIndex)
	c.str16(&p.VideoID)
	c.trailer(&p.QoS, &p.Deadline, &p.TraceID)
}

// Marshal encodes the body.
func (p PanoFetch) Marshal() ([]byte, error) {
	var c cursor
	p.fields(&c)
	p.fields(c.encoder())
	return c.bytes()
}

// UnmarshalPanoFetch decodes a PanoFetch body.
func UnmarshalPanoFetch(body []byte) (p PanoFetch, err error) {
	c := decoder("pano-fetch", body)
	p.fields(&c)
	return p, c.end()
}

// PanoReply carries an RLE-encoded panoramic frame.
type PanoReply struct {
	Source uint8
	Data   []byte
}

func (p *PanoReply) fields(c *cursor) {
	c.u8(&p.Source)
	c.blob(&p.Data)
}

// Marshal encodes the body.
func (p PanoReply) Marshal() ([]byte, error) {
	var c cursor
	p.fields(&c)
	p.fields(c.encoder())
	return c.bytes()
}

// Size is the length of the encoded body, from its layout alone.
func (p PanoReply) Size() int {
	var c cursor
	p.fields(&c)
	return c.n
}

// AppendTo appends the encoded body to dst, which only reallocates when
// dst has less than Size bytes of spare capacity.
func (p PanoReply) AppendTo(dst []byte) ([]byte, error) {
	c := cursor{mode: encoding, buf: dst}
	p.fields(&c)
	return c.bytes()
}

// UnmarshalPanoReply decodes a PanoReply body. Data aliases body.
func UnmarshalPanoReply(body []byte) (p PanoReply, err error) {
	c := decoder("pano-reply", body)
	p.fields(&c)
	return p, c.end()
}

// ErrorReply reports a protocol-level failure.
type ErrorReply struct {
	Code uint16
	Msg  string
}

// Error codes.
const (
	CodeInternal     uint16 = 1
	CodeBadRequest   uint16 = 2
	CodeUnknownModel uint16 = 3
	CodeUnavailable  uint16 = 4
	// CodeOverloaded is the admission-control reply: the connection's
	// worker pool and queue are full, so the request was rejected without
	// processing. The client may retry after backing off; the connection
	// stays healthy and the reply keeps its place in the response order.
	CodeOverloaded uint16 = 5
	// CodeCanceled is the reply of a request aborted by a MsgCancel frame
	// or by its caller's context expiring (a client that disconnected
	// mid-pipeline, a coalesced fetch whose last waiter departed). The
	// work was abandoned, not failed; retrying is safe.
	CodeCanceled uint16 = 6
	// CodeDeadlineExceeded is the reply of a request shed because its
	// wall-clock deadline (the QoS trailer) passed while it was queued:
	// no worker touched it, no upstream fetch was issued — the result
	// would have been stale on arrival. Retrying is safe but usually
	// pointless; the next frame has already superseded this one.
	CodeDeadlineExceeded uint16 = 7
	// CodeQuotaExceeded is the per-tenant admission reply: the
	// connection's tenant exhausted its token-bucket quota, so the
	// request was rejected without queueing or processing. Unlike
	// CodeOverloaded (the server as a whole is saturated) this is
	// rationing — other tenants' requests still flow. The client may
	// retry after backing off; the connection stays healthy and the
	// reply keeps its place in the response order.
	CodeQuotaExceeded uint16 = 8
)

func (e *ErrorReply) fields(c *cursor) {
	c.u16(&e.Code)
	c.str16(&e.Msg)
}

// Marshal encodes the body. Msg is limited to 65535 bytes.
func (e ErrorReply) Marshal() ([]byte, error) {
	var c cursor
	e.fields(&c)
	e.fields(c.encoder())
	return c.bytes()
}

// UnmarshalErrorReply decodes an ErrorReply body.
func UnmarshalErrorReply(body []byte) (e ErrorReply, err error) {
	c := decoder("error", body)
	e.fields(&c)
	return e, c.end()
}

// CancelRequest is the body of a MsgCancel frame: the RequestID (on the
// same connection) of the in-flight request to abort.
type CancelRequest struct {
	TargetID uint64
}

func (r *CancelRequest) fields(c *cursor) {
	c.u64(&r.TargetID)
}

// Marshal encodes the body.
func (r CancelRequest) Marshal() ([]byte, error) {
	var c cursor
	r.fields(&c)
	r.fields(c.encoder())
	return c.bytes()
}

// UnmarshalCancelRequest decodes a CancelRequest body.
func UnmarshalCancelRequest(body []byte) (r CancelRequest, err error) {
	c := decoder("cancel", body)
	r.fields(&c)
	return r, c.end()
}

// RecognitionResult is the application-level result of a recognition
// task: what the cloud computes, the edge caches, and the client renders
// an annotation from.
type RecognitionResult struct {
	ClassIndex int32
	Label      string
	Confidence float32
	// AnnotationModelID names the 3D model the AR app should render over
	// the recognised object.
	AnnotationModelID string
}

func (r *RecognitionResult) fields(c *cursor) {
	c.i32(&r.ClassIndex)
	c.f32(&r.Confidence)
	c.str16(&r.Label)
	c.str16(&r.AnnotationModelID)
}

// Marshal encodes the result for caching and transport.
func (r RecognitionResult) Marshal() ([]byte, error) {
	var c cursor
	r.fields(&c)
	r.fields(c.encoder())
	return c.bytes()
}

// UnmarshalRecognitionResult decodes a RecognitionResult.
func UnmarshalRecognitionResult(body []byte) (r RecognitionResult, err error) {
	c := decoder("recognition-result", body)
	r.fields(&c)
	return r, c.end()
}
