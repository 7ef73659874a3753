package wire

import (
	"bytes"
	"io"
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

// BenchmarkReadMessage2M reads a 2 MB exec frame, the size of a 720×720
// camera upload, through one Reader as a connection does: fresh is a new
// body per frame, recycled is one buffer reused, as a server connection
// reads exec frames.
func BenchmarkReadMessage2M(b *testing.B) {
	enc, err := execFrame2M().Encode()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body func(MsgType, int) []byte
	}{
		{"fresh", nil},
		{"recycled", recycled(len(enc))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := bytes.NewReader(enc)
			rd := NewReader(r)
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Reset(enc)
				if _, err := rd.ReadMessageInto(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteMessage2M writes a 2 MB exec frame, as the edge forwards
// a miss upstream: fresh encodes into a new buffer per frame (Encode,
// then one Write), recycled is WriteMessage's pooled buffer.
func BenchmarkWriteMessage2M(b *testing.B) {
	m := execFrame2M()
	for _, bc := range []struct {
		name  string
		write func(io.Writer, Message) error
	}{
		{"fresh", func(w io.Writer, m Message) error {
			buf, err := m.Encode()
			if err == nil {
				_, err = w.Write(buf)
			}
			return err
		}},
		{"recycled", WriteMessage},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(m.WireSize()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.write(io.Discard, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
