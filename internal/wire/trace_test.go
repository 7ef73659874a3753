package wire

import (
	"errors"
	"testing"

	"github.com/edge-immersion/coic/internal/feature"
)

// TestTraceTrailerRoundTrip covers the traced (17-byte) trailer form on
// all three request bodies: class, deadline and trace ID survive a round
// trip, and PeekQoS/PeekTrace read them without decoding.
func TestTraceTrailerRoundTrip(t *testing.T) {
	const deadline = int64(1234567890)
	const trace = uint64(0xfeedface12345678)
	desc := feature.NewVector([]float32{1, 2})
	cases := []struct {
		name string
		t    MsgType
		body func() ([]byte, error)
		get  func([]byte) (QoS, int64, uint64, error)
	}{
		{"exec", MsgExec,
			func() ([]byte, error) {
				return ExecRequest{Task: TaskRecognize, Desc: desc, Payload: []byte("img"),
					QoS: QoSInteractive, Deadline: deadline, TraceID: trace}.Marshal()
			},
			func(b []byte) (QoS, int64, uint64, error) {
				e, err := UnmarshalExecRequest(b)
				return e.QoS, e.Deadline, e.TraceID, err
			}},
		{"model", MsgModelFetch,
			func() ([]byte, error) {
				return ModelFetch{ModelID: "m1", Format: FormatCMF,
					QoS: QoSInteractive, Deadline: deadline, TraceID: trace}.Marshal()
			},
			func(b []byte) (QoS, int64, uint64, error) {
				m, err := UnmarshalModelFetch(b)
				return m.QoS, m.Deadline, m.TraceID, err
			}},
		{"pano", MsgPanoFetch,
			func() ([]byte, error) {
				return PanoFetch{VideoID: "v1", FrameIndex: 7,
					QoS: QoSInteractive, Deadline: deadline, TraceID: trace}.Marshal()
			},
			func(b []byte) (QoS, int64, uint64, error) {
				p, err := UnmarshalPanoFetch(b)
				return p.QoS, p.Deadline, p.TraceID, err
			}},
	}
	for _, tc := range cases {
		body, err := tc.body()
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		q, d, tr, err := tc.get(body)
		if err != nil || q != QoSInteractive || d != deadline || tr != trace {
			t.Fatalf("%s: round trip = %v,%d,%x (%v)", tc.name, q, d, tr, err)
		}
		if pq, pd := PeekQoS(tc.t, body); pq != QoSInteractive || pd != deadline {
			t.Fatalf("%s: PeekQoS = %v, %d", tc.name, pq, pd)
		}
		if pt := PeekTrace(tc.t, body); pt != trace {
			t.Fatalf("%s: PeekTrace = %x, want %x", tc.name, pt, trace)
		}
	}
}

// TestTraceTrailerBackwardCompatible proves a zero trace keeps the short
// (or absent) trailer form on the wire, and that short-form and legacy
// bodies read a zero trace.
func TestTraceTrailerBackwardCompatible(t *testing.T) {
	// Zero trace + zero QoS: no trailer at all.
	plain, err := PanoFetch{VideoID: "v", FrameIndex: 1}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plain); got != 6+1 {
		t.Fatalf("zero-valued pano body = %d bytes, want pre-QoS layout", got)
	}
	if PeekTrace(MsgPanoFetch, plain) != 0 {
		t.Fatal("PeekTrace on legacy body should read 0")
	}

	// Zero trace + QoS set: 9-byte form, so pre-trace servers still parse it.
	short, err := PanoFetch{VideoID: "v", FrameIndex: 1, QoS: QoSInteractive}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(short); got != 6+1+qosTrailerLen {
		t.Fatalf("traced-capable body without trace = %d bytes, want short trailer", got)
	}
	if PeekTrace(MsgPanoFetch, short) != 0 {
		t.Fatal("PeekTrace on short trailer should read 0")
	}

	// Trace without QoS/deadline still forces the long form and reads back.
	traced, err := PanoFetch{VideoID: "v", FrameIndex: 1, TraceID: 42}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(traced); got != 6+1+traceTrailerLen {
		t.Fatalf("traced body = %d bytes, want long trailer", got)
	}
	p, err := UnmarshalPanoFetch(traced)
	if err != nil || p.TraceID != 42 || p.QoS != QoSBestEffort {
		t.Fatalf("traced round trip = %+v (%v)", p, err)
	}

	// Garbage trailer lengths are rejected, not misread.
	if _, err := UnmarshalPanoFetch(append(plain, make([]byte, 13)...)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("13-byte trailer: err = %v, want ErrBadMessage", err)
	}
	// PeekTrace on non-request frames is inert.
	if PeekTrace(MsgHello, []byte{1, 0, 0}) != 0 {
		t.Fatal("PeekTrace(hello) should read 0")
	}
}
