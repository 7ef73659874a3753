package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/edge-immersion/coic/internal/feature"
)

// goldenCase is one fixed value of one body type. Its name is the key of
// its line in testdata/golden_bodies.txt: the frame type's String() name
// (or the body's name, for the three bodies that travel inside another
// frame), plus a /variant where a type has several encoded forms.
type goldenCase struct {
	name    string
	value   any
	marshal func() ([]byte, error)
	decode  func([]byte) (any, error)
	// trailer is the encoded trailer length of this case: 0, 9 or 17.
	// Cutting a trailer down to one of its shorter forms is the one kind
	// of strict prefix that is still a well-formed body.
	trailer int
}

func golden[T interface{ Marshal() ([]byte, error) }](name string, v T, unmarshal func([]byte) (T, error), trailer int) goldenCase {
	return goldenCase{
		name:    name,
		value:   v,
		marshal: v.Marshal,
		decode:  func(b []byte) (any, error) { return unmarshal(b) },
		trailer: trailer,
	}
}

var (
	goldenVec  = feature.Descriptor{Kind: feature.KindVector, Vec: []float32{0.6, -0.8}}
	goldenHash = feature.NewHash([]byte("annotation/dragon"))

	goldenMembers = Membership{
		From:  "edge-a:7001",
		Epoch: 0x0102030405060708,
		Members: []MemberEntry{
			{ID: "edge-a:7001", Incarnation: 3, Status: MemberAlive},
			{ID: "edge-b:7001", Incarnation: 1, Status: MemberSuspect},
			{ID: "edge-c:7001", Incarnation: 9, Status: MemberDead},
		},
	}
)

// goldenCases covers every body type at least once, the three trailer
// forms, and the three hello forms. The values are fixed: the encoded
// bytes in testdata/golden_bodies.txt were produced from them by the
// hand-written encoders this package had before the field codec.
var goldenCases = []goldenCase{
	golden("probe", ProbeRequest{Task: TaskRecognize, Desc: goldenVec}, UnmarshalProbeRequest, 0),
	golden("probe-reply", ProbeReply{Outcome: ProbeSimilar, Distance: 0.125, Result: []byte("cached")}, UnmarshalProbeReply, 0),
	golden("exec/absent", ExecRequest{Task: TaskRecognize, Desc: goldenVec, Payload: []byte("frame-bytes")}, UnmarshalExecRequest, 0),
	golden("exec/qos", ExecRequest{Task: TaskRecognize, Desc: goldenVec, Payload: []byte("frame-bytes"), QoS: QoSInteractive, Deadline: 1700000000123456}, UnmarshalExecRequest, 9),
	golden("exec/traced", ExecRequest{Task: TaskRender, Desc: goldenHash, Payload: []byte("frame-bytes"), QoS: QoSInteractive, Deadline: 1700000000123456, TraceID: 0xFEEDFACECAFEBEEF}, UnmarshalExecRequest, 17),
	golden("exec-reply", ExecReply{Source: SourceCloud, Result: []byte("result")}, UnmarshalExecReply, 0),
	golden("model-fetch", ModelFetch{ModelID: "annotation/dragon", Format: FormatCMF}, UnmarshalModelFetch, 0),
	golden("model-fetch/traced", ModelFetch{ModelID: "annotation/dragon", Format: FormatOBJX, Deadline: 42, TraceID: 7}, UnmarshalModelFetch, 17),
	golden("model-reply", ModelReply{Format: FormatCMF, Source: SourceEdge, Data: []byte("CMF\x00mesh")}, UnmarshalModelReply, 0),
	golden("pano-fetch", PanoFetch{VideoID: "vr/rollercoaster", FrameIndex: 1234}, UnmarshalPanoFetch, 0),
	golden("pano-fetch/qos", PanoFetch{VideoID: "vr/rollercoaster", FrameIndex: 1234, QoS: QoSInteractive}, UnmarshalPanoFetch, 9),
	golden("pano-reply", PanoReply{Source: SourceEdge, Data: []byte{0x10, 0x20, 0x30}}, UnmarshalPanoReply, 0),
	golden("error", ErrorReply{Code: CodeUnknownModel, Msg: "no such model"}, UnmarshalErrorReply, 0),
	golden("hello/legacy-mode", Hello{Mode: HelloModeOrigin}, UnmarshalHello, 0),
	golden("hello/legacy-flags", Hello{Mode: HelloModeCoIC, Flags: HelloFlagUnordered}, UnmarshalHello, 0),
	golden("hello/structured", Hello{Version: HelloVersion, Mode: HelloModeCoIC, Flags: HelloFlagUnordered, Tenant: "acme", Token: "s3cr3t"}, UnmarshalHello, 0),
	golden("peer-lookup", PeerLookup{Task: TaskRender, Desc: goldenHash}, UnmarshalPeerLookup, 0),
	golden("peer-reply", PeerReply{Outcome: ProbeExact, Distance: 0.5, Result: []byte("peer-cached")}, UnmarshalPeerReply, 0),
	golden("peer-insert", PeerInsert{Desc: goldenVec, Cost: 123.5, Value: []byte("published")}, UnmarshalPeerInsert, 0),
	golden("cancel", CancelRequest{TargetID: 0xDEADBEEFCAFE}, UnmarshalCancelRequest, 0),
	golden("scene-join", SceneJoin{Scene: "gallery"}, UnmarshalSceneJoin, 0),
	golden("scene-join/traced", SceneJoin{Scene: "gallery", QoS: QoSInteractive, Deadline: 99, TraceID: 0xAB}, UnmarshalSceneJoin, 17),
	golden("scene-publish", ScenePublish{Scene: "gallery", Key: "pose/a", Value: []byte{1, 2, 3}}, UnmarshalScenePublish, 0),
	golden("scene-publish/traced", ScenePublish{Scene: "gallery", Key: "pose/a", Value: []byte{1, 2, 3}, QoS: QoSInteractive, Deadline: 99, TraceID: 0xCD}, UnmarshalScenePublish, 17),
	golden("scene-event", SceneEvent{Scene: "gallery", Key: "pose/a", Value: []byte{1, 2, 3}, Seq: 5, Version: 6}, UnmarshalSceneEvent, 0),
	golden("scene-event/qos", SceneEvent{Scene: "gallery", Key: "pose/a", Value: []byte{1, 2, 3}, Seq: 5, Version: 6, QoS: QoSInteractive}, UnmarshalSceneEvent, 9),
	golden("scene-event/traced", SceneEvent{Scene: "gallery", Key: "pose/a", Value: []byte{1, 2, 3}, Seq: 5, Version: 6, TraceID: 0xCD}, UnmarshalSceneEvent, 17),
	golden("scene-leave", SceneLeave{Scene: "gallery"}, UnmarshalSceneLeave, 0),
	golden("scene-leave/qos", SceneLeave{Scene: "gallery", Deadline: 99}, UnmarshalSceneLeave, 9),
	golden("member-ping", goldenMembers, UnmarshalMembership, 0),
	golden("member-ack", goldenMembers, UnmarshalMembership, 0),
	golden("member-gossip", goldenMembers, UnmarshalMembership, 0),
	golden("member-leave", goldenMembers, UnmarshalMembership, 0),
	// Bodies that travel inside another frame: the cached recognition
	// payload, and the replies to scene-publish and scene-join.
	golden("recognition-result", RecognitionResult{ClassIndex: -3, Label: "stop-sign", Confidence: 0.75, AnnotationModelID: "annotation/stop-sign"}, UnmarshalRecognitionResult, 0),
	golden("scene-publish-ack", ScenePublishAck{Seq: 5, Version: 6}, UnmarshalScenePublishAck, 0),
	golden("scene-snapshot", SceneSnapshot{Scene: "gallery", Version: 6, Entries: []SceneEntry{
		{Key: "pose/a", Value: []byte{1, 2, 3}, Seq: 5},
		{Key: "pose/b", Value: []byte{4}, Seq: 6},
	}}, UnmarshalSceneSnapshot, 0),
}

// goldenBody is one parsed line of golden_bodies.txt.
type goldenBody struct {
	bytes []byte
	// lens are the [offset, offset+width) spans the file brackets: the
	// length and count prefixes inside the body.
	lens [][2]int
}

// loadGoldenBodies parses testdata/golden_bodies.txt: one body per line,
// "name hex", where spaces in the hex are cosmetic and [..] brackets a
// length or count prefix.
func loadGoldenBodies(t testing.TB) map[string]goldenBody {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden_bodies.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]goldenBody{}
	for n, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		var g goldenBody
		var digits strings.Builder
		open := -1
		for _, r := range rest {
			switch r {
			case ' ':
			case '[':
				open = digits.Len() / 2
			case ']':
				g.lens = append(g.lens, [2]int{open, digits.Len() / 2})
			default:
				digits.WriteRune(r)
			}
		}
		if g.bytes, err = hex.DecodeString(digits.String()); err != nil {
			t.Fatalf("golden_bodies.txt line %d (%s): %v", n+1, name, err)
		}
		if _, dup := out[name]; dup {
			t.Fatalf("golden_bodies.txt line %d: %s listed twice", n+1, name)
		}
		out[name] = g
	}
	return out
}

// TestGoldenBodies pins the wire format: every body type's Marshal must
// reproduce the committed bytes exactly and its Unmarshal must return the
// value they were made from. Every frame type must have a golden body, so
// a new frame cannot ship unpinned (or unfuzzed: FuzzBodyRoundTrip runs
// over the same cases).
func TestGoldenBodies(t *testing.T) {
	bodies := loadGoldenBodies(t)
	covered := map[string]bool{}
	for _, gc := range goldenCases {
		want, ok := bodies[gc.name]
		if !ok {
			got, _ := gc.marshal()
			t.Errorf("%s: no line in golden_bodies.txt (Marshal gives %x)", gc.name, got)
			continue
		}
		delete(bodies, gc.name)
		frame, _, _ := strings.Cut(gc.name, "/")
		covered[frame] = true

		got, err := gc.marshal()
		if err != nil {
			t.Errorf("%s: Marshal: %v", gc.name, err)
			continue
		}
		if !bytes.Equal(got, want.bytes) {
			t.Errorf("%s: Marshal changed the wire bytes\n got %x\nwant %x", gc.name, got, want.bytes)
		}
		v, err := gc.decode(want.bytes)
		if err != nil {
			t.Errorf("%s: Unmarshal: %v", gc.name, err)
			continue
		}
		if !reflect.DeepEqual(v, gc.value) {
			t.Errorf("%s: Unmarshal = %+v, want %+v", gc.name, v, gc.value)
		}
	}
	for name := range bodies {
		t.Errorf("golden_bodies.txt: %s has no goldenCase", name)
	}
	for _, mt := range AllMsgTypes() {
		if !covered[mt.String()] {
			t.Errorf("frame type %v has no golden body", mt)
		}
	}
}

// TestGoldenBodiesRejectHostileBytes is the deterministic half of the
// fuzz target: every strict prefix of every golden body, and every length
// or count prefix bumped by one or set to all-ones, must be rejected with
// an ErrBadMessage-wrapped error and no panic. The exceptions are the
// prefixes the protocol defines as well-formed — a trailer cut down to a
// shorter form, and the 0–2 byte legacy hello — which must decode.
func TestGoldenBodiesRejectHostileBytes(t *testing.T) {
	bodies := loadGoldenBodies(t)
	for _, gc := range goldenCases {
		g := bodies[gc.name]
		wellFormed := map[int]bool{}
		switch gc.trailer {
		case traceTrailerLen:
			wellFormed[len(g.bytes)-traceTrailerLen] = true
			wellFormed[len(g.bytes)-traceTrailerLen+qosTrailerLen] = true
		case qosTrailerLen:
			wellFormed[len(g.bytes)-qosTrailerLen] = true
		}
		if strings.HasPrefix(gc.name, "hello") {
			wellFormed[0], wellFormed[1], wellFormed[2] = true, true, true
		}
		for n := 0; n < len(g.bytes); n++ {
			_, err := gc.decode(g.bytes[:n:n])
			switch {
			case wellFormed[n] && err != nil:
				t.Errorf("%s: well-formed %d-byte prefix rejected: %v", gc.name, n, err)
			case !wellFormed[n] && !errors.Is(err, ErrBadMessage):
				t.Errorf("%s: %d-byte prefix of %d: err = %v, want ErrBadMessage", gc.name, n, len(g.bytes), err)
			}
		}
		if len(g.lens) == 0 && hasVariableField(gc.value) && !strings.HasPrefix(gc.name, "hello/legacy") {
			t.Errorf("%s: golden_bodies.txt brackets no length prefix", gc.name)
		}
		for _, span := range g.lens {
			width := span[1] - span[0]
			var field [8]byte
			copy(field[:], g.bytes[span[0]:span[1]])
			orig := binary.LittleEndian.Uint64(field[:])
			for _, v := range []uint64{orig + 1, 1<<(8*width) - 1} {
				binary.LittleEndian.PutUint64(field[:], v)
				mutated := append([]byte(nil), g.bytes...)
				copy(mutated[span[0]:span[1]], field[:width])
				if _, err := gc.decode(mutated); !errors.Is(err, ErrBadMessage) {
					t.Errorf("%s: length prefix at %d set to %d (was %d): err = %v, want ErrBadMessage",
						gc.name, span[0], v, orig, err)
				}
			}
		}
	}
}

// hasVariableField reports whether v (a body struct) has a string, slice
// or descriptor field — i.e. whether its encoding must contain at least
// one length prefix for the hostile-bytes sweep to bump.
func hasVariableField(v any) bool {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		switch rv.Field(i).Kind() {
		case reflect.String, reflect.Slice, reflect.Struct:
			return true
		}
	}
	return false
}
