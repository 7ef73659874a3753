package wire

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// execFrame2M is a 2 MB exec frame, the size of a 720×720 camera upload.
func execFrame2M() Message {
	body := make([]byte, 2<<20)
	for i := range body {
		body[i] = byte(i * 7)
	}
	return Message{Type: MsgExec, RequestID: 9, Body: body}
}

// recycled returns a body source that hands out one buffer, as a server
// connection's frame pool does in steady state.
func recycled(size int) func(MsgType, int) []byte {
	buf := make([]byte, size)
	return func(MsgType, int) []byte { return buf }
}

// allocBudget asserts that f, in steady state, makes at most maxAllocs
// allocations and allocates well under one body's worth of bytes per
// call.
func allocBudget(t *testing.T, what string, maxAllocs float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers on purpose")
	}
	const runs = 20
	// AllocsPerRun warms f up itself; it also pins GOMAXPROCS to 1, and a
	// change of GOMAXPROCS empties every sync.Pool, so the byte count
	// below is taken after it, with the pool warmed again.
	allocs := testing.AllocsPerRun(runs, f)
	runtime.GC() // the collection the set-up owes must not empty the pool mid-count
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > maxAllocs || perCall >= 64<<10 {
		t.Fatalf("%s: %.1f allocations and %d B per call in steady state, want ≤ %.0f and < 64 KiB", what, allocs, perCall, maxAllocs)
	}
}

func TestWriteMessage2MAllocatesNoBody(t *testing.T) {
	m := execFrame2M()
	allocBudget(t, "WriteMessage", 0, func() {
		if err := WriteMessage(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
}

func TestPooledRead2MAllocatesNoBody(t *testing.T) {
	m := execFrame2M()
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(enc)
	body := recycled(len(m.Body))
	// A connection reads through one Reader, whose header scratch lives
	// as long as the connection: nothing is allocated per frame.
	rd := NewReader(r)
	allocBudget(t, "Reader.ReadMessageInto", 0, func() {
		r.Reset(enc)
		got, err := rd.ReadMessageInto(body)
		if err != nil || len(got.Body) != len(m.Body) {
			t.Fatalf("read %d bytes, %v", len(got.Body), err)
		}
	})
}

// TestPooledWriteMatchesEncode: a frame written through the pooled
// buffer is byte for byte Encode's, whatever size of frame used the
// buffer before it.
func TestPooledWriteMatchesEncode(t *testing.T) {
	for _, size := range []int{pooledWriteMin, 2 << 20, pooledWriteMin + 1, 100, 1 << 20} {
		m := Message{Type: MsgModelReply, RequestID: uint64(size), Body: bytes.Repeat([]byte{byte(size)}, size)}
		want, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := WriteMessage(&got, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%d-byte body: WriteMessage and Encode differ", size)
		}
	}
}

// TestReplyAppendToMatchesMarshal: a reply body appended into a buffer,
// whatever it held before, is byte for byte Marshal's, and Size is its
// length without building it.
func TestReplyAppendToMatchesMarshal(t *testing.T) {
	payload := bytes.Repeat([]byte{7, 1, 9}, 20000)
	scratch := bytes.Repeat([]byte{0xA5}, 1<<17)
	for _, b := range []interface {
		Marshal() ([]byte, error)
		Size() int
		AppendTo([]byte) ([]byte, error)
	}{
		ExecReply{Source: SourceEdge, Result: payload[:50]},
		ModelReply{Format: FormatCMF, Source: SourceCloud, Data: payload},
		PanoReply{Source: SourceEdge, Data: payload},
		PanoReply{},
	} {
		want, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if b.Size() != len(want) {
			t.Errorf("%T: Size = %d, Marshal wrote %d bytes", b, b.Size(), len(want))
		}
		got, err := b.AppendTo(scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T: AppendTo and Marshal differ", b)
		}
		if &got[0] != &scratch[0] {
			t.Errorf("%T: AppendTo reallocated a buffer with room", b)
		}
	}
}
