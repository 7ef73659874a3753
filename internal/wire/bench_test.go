package wire

import (
	"bytes"
	"testing"

	"github.com/edge-immersion/coic/internal/feature"
)

// BenchmarkFrameRoundTrip measures framing + parsing a 64KB message (a
// small camera frame), the per-request protocol overhead.
func BenchmarkFrameRoundTrip(b *testing.B) {
	m := Message{Type: MsgExec, RequestID: 1, Body: make([]byte, 64<<10)}
	b.SetBytes(int64(m.WireSize()))
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecRequestMarshal measures the typed body codec with a vector
// descriptor attached.
func BenchmarkExecRequestMarshal(b *testing.B) {
	vec := make([]float32, 64)
	for i := range vec {
		vec[i] = float32(i) / 64
	}
	req := ExecRequest{Task: TaskRecognize, Desc: feature.NewVector(vec), Payload: make([]byte, 32<<10)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := req.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := UnmarshalExecRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecRequestUnmarshal measures decoding a camera-frame-sized
// exec body on its own: with the payload aliased rather than copied, the
// cost must not grow with the payload.
func BenchmarkExecRequestUnmarshal(b *testing.B) {
	req := ExecRequest{Task: TaskRecognize, Desc: feature.NewVector(make([]float32, 64)), Payload: make([]byte, 2<<20)}
	body, err := req.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalExecRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}
