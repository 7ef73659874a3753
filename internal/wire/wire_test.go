package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"testing/quick"

	"github.com/edge-immersion/coic/internal/feature"
)

func TestFrameRoundTrip(t *testing.T) {
	m := Message{Type: MsgProbe, RequestID: 42, Body: []byte("hello")}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != m.WireSize() {
		t.Fatalf("wire size %d != buffer %d", m.WireSize(), buf.Len())
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.RequestID != m.RequestID || !bytes.Equal(got.Body, m.Body) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, Message{Type: MsgHello, RequestID: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != 0 {
		t.Fatal("empty body grew")
	}
}

func TestFrameSequence(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		WriteMessage(&buf, Message{Type: MsgExec, RequestID: uint64(i), Body: []byte{byte(i)}})
	}
	for i := 0; i < 10; i++ {
		m, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if m.RequestID != uint64(i) || m.Body[0] != byte(i) {
			t.Fatalf("frame %d out of order: %+v", i, m)
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	m := Message{Type: MsgExec, RequestID: 7, Body: []byte("payload")}
	good, _ := m.Encode()

	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0xFF
		return b
	}
	if _, err := ReadMessage(bytes.NewReader(flip(0))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic: %v", err)
	}
	if _, err := ReadMessage(bytes.NewReader(flip(2))); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: %v", err)
	}
	if _, err := ReadMessage(bytes.NewReader(flip(HeaderSize))); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("crc: %v", err)
	}
	// Truncated body.
	if _, err := ReadMessage(bytes.NewReader(good[:len(good)-2])); err == nil {
		t.Fatal("truncated body accepted")
	}
	// Oversized length field.
	big := append([]byte(nil), good...)
	big[12], big[13], big[14], big[15] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := ReadMessage(bytes.NewReader(big)); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversize: %v", err)
	}
}

func TestFrameTooBigOnWrite(t *testing.T) {
	if _, err := (Message{Type: MsgExec, Body: make([]byte, MaxBody+1)}).Encode(); !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan Message, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		m, err := ReadMessage(conn)
		if err != nil {
			return
		}
		done <- m
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := Message{Type: MsgModelFetch, RequestID: 99, Body: bytes.Repeat([]byte("m"), 100_000)}
	if err := WriteMessage(conn, want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.RequestID != 99 || !bytes.Equal(got.Body, want.Body) {
		t.Fatal("TCP round trip corrupted frame")
	}
}

// TestMsgTypeStrings iterates the canonical frame-type list instead of a
// hand-written range (which once stopped at MsgPeerInsert and silently
// skipped MsgCancel), and sweeps the whole value space to prove the list
// and the String method agree: a new frame constant with a name must be
// in AllMsgTypes, and everything in AllMsgTypes must have a name.
func TestMsgTypeStrings(t *testing.T) {
	all := AllMsgTypes()
	if len(all) == 0 {
		t.Fatal("canonical frame-type list is empty")
	}
	listed := map[MsgType]bool{}
	for _, mt := range all {
		if listed[mt] {
			t.Fatalf("type %d listed twice in AllMsgTypes", mt)
		}
		listed[mt] = true
		if s := mt.String(); s == "" || strings.HasPrefix(s, "unknown(") {
			t.Fatalf("canonical type %d has no name", mt)
		}
	}
	for v := 0; v <= 255; v++ {
		mt := MsgType(v)
		named := !strings.HasPrefix(mt.String(), "unknown(")
		if named != listed[mt] {
			t.Fatalf("type %d: named=%v but in AllMsgTypes=%v — keep the list and String in sync", v, named, listed[mt])
		}
	}
	if MsgType(200).String() != "unknown(200)" {
		t.Fatal("unknown type name")
	}
}

// TestAllMsgTypesContiguous locks the wire values: the canonical list
// must cover 1..len with no holes, so "never reorder" is testable.
func TestAllMsgTypesContiguous(t *testing.T) {
	for i, mt := range AllMsgTypes() {
		if int(mt) != i+1 {
			t.Fatalf("AllMsgTypes[%d] = %d, want %d (contiguous wire values)", i, mt, i+1)
		}
	}
}

func TestProbeRequestRoundTrip(t *testing.T) {
	for _, desc := range []feature.Descriptor{
		feature.NewVector([]float32{0.1, 0.9, -0.3}),
		feature.NewHash([]byte("model-7")),
	} {
		p := ProbeRequest{Task: TaskRecognize, Desc: desc}
		body, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalProbeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Task != p.Task || got.Desc.Kind != desc.Kind || got.Desc.Key() != desc.Key() {
			t.Fatalf("round trip: %+v", got)
		}
	}
}

func TestProbeReplyRoundTrip(t *testing.T) {
	p := ProbeReply{Outcome: ProbeSimilar, Distance: 0.042, Result: []byte("cached")}
	body, _ := p.Marshal()
	got, err := UnmarshalProbeReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != ProbeSimilar || got.Distance != 0.042 || string(got.Result) != "cached" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestExecRequestRoundTrip(t *testing.T) {
	e := ExecRequest{
		Task:    TaskRecognize,
		Desc:    feature.NewVector([]float32{1, 0}),
		Payload: bytes.Repeat([]byte("img"), 1000),
	}
	body, err := e.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalExecRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Task != e.Task || !bytes.Equal(got.Payload, e.Payload) || got.Desc.Key() != e.Desc.Key() {
		t.Fatal("round trip mismatch")
	}
}

func TestExecReplyRoundTrip(t *testing.T) {
	e := ExecReply{Source: SourceCloud, Result: []byte("r")}
	body, _ := e.Marshal()
	got, err := UnmarshalExecReply(body)
	if err != nil || got.Source != SourceCloud || string(got.Result) != "r" {
		t.Fatalf("%+v, %v", got, err)
	}
}

func TestModelMessagesRoundTrip(t *testing.T) {
	f := ModelFetch{ModelID: "annotation/dragon", Format: FormatCMF}
	body, _ := f.Marshal()
	gf, err := UnmarshalModelFetch(body)
	if err != nil || gf != f {
		t.Fatalf("%+v, %v", gf, err)
	}
	r := ModelReply{Format: FormatOBJX, Source: SourceEdge, Data: []byte("obj data")}
	body, _ = r.Marshal()
	gr, err := UnmarshalModelReply(body)
	if err != nil || gr.Format != r.Format || gr.Source != r.Source || !bytes.Equal(gr.Data, r.Data) {
		t.Fatalf("%+v, %v", gr, err)
	}
}

func TestPanoMessagesRoundTrip(t *testing.T) {
	f := PanoFetch{VideoID: "vr/rollercoaster", FrameIndex: 1234}
	body, _ := f.Marshal()
	gf, err := UnmarshalPanoFetch(body)
	if err != nil || gf != f {
		t.Fatalf("%+v, %v", gf, err)
	}
	r := PanoReply{Source: SourceEdge, Data: []byte{1, 2, 3}}
	body, _ = r.Marshal()
	gr, err := UnmarshalPanoReply(body)
	if err != nil || gr.Source != r.Source || !bytes.Equal(gr.Data, r.Data) {
		t.Fatalf("%+v, %v", gr, err)
	}
}

func TestErrorReplyRoundTrip(t *testing.T) {
	e := ErrorReply{Code: CodeUnknownModel, Msg: "no such model"}
	body, _ := e.Marshal()
	got, err := UnmarshalErrorReply(body)
	if err != nil || got != e {
		t.Fatalf("%+v, %v", got, err)
	}
}

func TestRecognitionResultRoundTrip(t *testing.T) {
	r := RecognitionResult{
		ClassIndex: 3, Label: "stop-sign", Confidence: 0.93,
		AnnotationModelID: "annotation/stop-sign",
	}
	body, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRecognitionResult(body)
	if err != nil || got != r {
		t.Fatalf("%+v, %v", got, err)
	}
}

func TestPeerLookupRoundTrip(t *testing.T) {
	for _, desc := range []feature.Descriptor{
		feature.NewVector([]float32{0.4, -0.2, 0.7}),
		feature.NewHash([]byte("model-3")),
	} {
		p := PeerLookup{Task: TaskRender, Desc: desc}
		body, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalPeerLookup(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Task != p.Task || got.Desc.Kind != desc.Kind || got.Desc.Key() != desc.Key() {
			t.Fatalf("round trip: %+v", got)
		}
	}
}

func TestPeerReplyRoundTrip(t *testing.T) {
	p := PeerReply{Outcome: ProbeExact, Distance: 0.011, Result: []byte("peer-cached")}
	body, _ := p.Marshal()
	got, err := UnmarshalPeerReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != ProbeExact || got.Distance != 0.011 || string(got.Result) != "peer-cached" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPeerInsertRoundTrip(t *testing.T) {
	for _, desc := range []feature.Descriptor{
		feature.NewVector([]float32{0.3, 0.1, -0.8}),
		feature.NewHash([]byte("pano:video-0:7")),
	} {
		p := PeerInsert{Desc: desc, Cost: 123.5, Value: []byte("published")}
		body, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalPeerInsert(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != p.Cost || string(got.Value) != "published" ||
			got.Desc.Kind != desc.Kind || got.Desc.Key() != desc.Key() {
			t.Fatalf("round trip: %+v", got)
		}
	}
}

// TestBodyDecodersRejectGarbage feeds every body decoder a few short
// byte strings that are not prefixes of any golden body (those, and the
// empty body, are TestGoldenBodiesRejectHostileBytes's).
func TestBodyDecodersRejectGarbage(t *testing.T) {
	for _, gc := range goldenCases {
		for _, b := range [][]byte{{1}, {1, 2, 3}, bytes.Repeat([]byte{0xFF}, 9)} {
			if _, err := gc.decode(b); !errors.Is(err, ErrBadMessage) {
				t.Errorf("%s: body %v: err = %v, want ErrBadMessage", gc.name, b, err)
			}
		}
	}
}

func TestExecRequestFuzzRoundTrip(t *testing.T) {
	f := func(payload []byte, vec []float32) bool {
		for i, v := range vec {
			if v != v || v > 1e30 || v < -1e30 { // NaN/huge guard
				vec[i] = 0.1
			}
		}
		if len(vec) == 0 {
			vec = []float32{1}
		}
		e := ExecRequest{Task: TaskPano, Desc: feature.NewVector(vec), Payload: payload}
		body, err := e.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalExecRequest(body)
		return err == nil && bytes.Equal(got.Payload, payload) && got.Desc.Key() == e.Desc.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameFuzzNeverPanics(t *testing.T) {
	// Arbitrary bytes fed to ReadMessage must error or succeed, never
	// panic or over-allocate.
	f := func(data []byte) bool {
		_, _ = ReadMessage(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelRequestRoundTrip(t *testing.T) {
	body, err := (CancelRequest{TargetID: 0xDEADBEEFCAFE}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCancelRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.TargetID != 0xDEADBEEFCAFE {
		t.Fatalf("target id %x", got.TargetID)
	}
	for _, bad := range [][]byte{nil, {1, 2, 3}, make([]byte, 9)} {
		if _, err := UnmarshalCancelRequest(bad); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("body %v accepted (err=%v)", bad, err)
		}
	}
}

func TestCancelMsgTypeString(t *testing.T) {
	if MsgCancel.String() != "cancel" {
		t.Fatal(MsgCancel.String())
	}
}

// TestQoSTrailerRoundTrip covers the scheduling trailer on all three
// request bodies: class and deadline survive a round trip, and PeekQoS
// reads them without a full decode.
func TestQoSTrailerRoundTrip(t *testing.T) {
	const deadline = int64(1_700_000_123_456_789)
	cases := []struct {
		name string
		t    MsgType
		body func() ([]byte, error)
		get  func([]byte) (QoS, int64, error)
	}{
		{"exec", MsgExec,
			func() ([]byte, error) {
				return ExecRequest{Task: TaskRecognize, Desc: feature.NewVector([]float32{1, 0}),
					Payload: []byte("img"), QoS: QoSInteractive, Deadline: deadline}.Marshal()
			},
			func(b []byte) (QoS, int64, error) {
				e, err := UnmarshalExecRequest(b)
				return e.QoS, e.Deadline, err
			}},
		{"model-fetch", MsgModelFetch,
			func() ([]byte, error) {
				return ModelFetch{ModelID: "scene/1073kb", Format: FormatCMF,
					QoS: QoSInteractive, Deadline: deadline}.Marshal()
			},
			func(b []byte) (QoS, int64, error) {
				m, err := UnmarshalModelFetch(b)
				return m.QoS, m.Deadline, err
			}},
		{"pano-fetch", MsgPanoFetch,
			func() ([]byte, error) {
				return PanoFetch{VideoID: "vr/coaster", FrameIndex: 7,
					QoS: QoSInteractive, Deadline: deadline}.Marshal()
			},
			func(b []byte) (QoS, int64, error) {
				p, err := UnmarshalPanoFetch(b)
				return p.QoS, p.Deadline, err
			}},
	}
	for _, tc := range cases {
		body, err := tc.body()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		q, d, err := tc.get(body)
		if err != nil || q != QoSInteractive || d != deadline {
			t.Fatalf("%s: decoded qos=%v deadline=%d err=%v", tc.name, q, d, err)
		}
		if pq, pd := PeekQoS(tc.t, body); pq != QoSInteractive || pd != deadline {
			t.Fatalf("%s: PeekQoS = %v, %d", tc.name, pq, pd)
		}
	}
}

// TestQoSTrailerBackwardCompatible proves the default class encodes to
// the pre-QoS layout (old servers keep accepting it) and that pre-QoS
// bodies decode with best-effort defaults (old clients keep working).
func TestQoSTrailerBackwardCompatible(t *testing.T) {
	plain, err := PanoFetch{VideoID: "v", FrameIndex: 1}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + 2 + 1; len(plain) != want {
		t.Fatalf("default-class body grew a trailer: %d bytes, want %d", len(plain), want)
	}
	got, err := UnmarshalPanoFetch(plain)
	if err != nil || got.QoS != QoSBestEffort || got.Deadline != 0 {
		t.Fatalf("legacy body decoded as %+v, %v", got, err)
	}
	if q, d := PeekQoS(MsgPanoFetch, plain); q != QoSBestEffort || d != 0 {
		t.Fatalf("PeekQoS on legacy body = %v, %d", q, d)
	}
	// A trailer-bearing body must be longer by exactly the trailer.
	tagged, err := PanoFetch{VideoID: "v", FrameIndex: 1, QoS: QoSInteractive}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != len(plain)+9 {
		t.Fatalf("trailer size = %d, want 9", len(tagged)-len(plain))
	}
	// Garbage between body and trailer boundary is rejected, not misread.
	if _, err := UnmarshalPanoFetch(append(plain, 0xFF)); err == nil {
		t.Fatal("partial trailer accepted")
	}
	// PeekQoS on non-request frames is inert.
	if q, d := PeekQoS(MsgHello, []byte{1}); q != QoSBestEffort || d != 0 {
		t.Fatalf("PeekQoS(hello) = %v, %d", q, d)
	}
}
