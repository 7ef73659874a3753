package wire

import (
	"runtime"
	"testing"

	"github.com/edge-immersion/coic/internal/feature"
)

// TestDecodeAliasesBody pins the buffer-ownership rule: a decoded blob is
// a view of the body it came from, not a copy — and its capacity is
// clipped, so appending to it cannot write over the rest of the body.
func TestDecodeAliasesBody(t *testing.T) {
	body, err := ExecRequest{
		Task: TaskRecognize, Desc: feature.NewVector([]float32{1, 0}),
		Payload: []byte("frame"), QoS: QoSInteractive,
	}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	req, err := UnmarshalExecRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)-qosTrailerLen-1] = 'E' // the payload's last byte
	if string(req.Payload) != "framE" {
		t.Fatalf("Payload = %q after writing the body: it is a copy, want a view", req.Payload)
	}
	_ = append(req.Payload, 0xFF)
	if class, _ := PeekQoS(MsgExec, body); class != QoSInteractive {
		t.Fatal("appending to the decoded Payload overwrote the trailer behind it")
	}
}

// TestUnmarshalAllocBudget pins what removing the decode copy bought:
// decoding a 2 MB exec body allocates the descriptor vector and nothing
// proportional to the payload, and a pano fetch only its video ID.
func TestUnmarshalAllocBudget(t *testing.T) {
	exec, err := ExecRequest{
		Task: TaskRecognize, Desc: feature.NewVector(make([]float32, 64)),
		Payload: make([]byte, 2<<20),
	}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := UnmarshalExecRequest(exec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 4<<10 {
		t.Errorf("UnmarshalExecRequest of a 2 MB body allocates %d bytes, want < 4 KB", perRun)
	}

	pano, err := PanoFetch{VideoID: "vr/rollercoaster", FrameIndex: 7, QoS: QoSInteractive, TraceID: 9}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalPanoFetch(pano); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("UnmarshalPanoFetch allocates %.0f times, want <= 1 (the video ID)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		PeekQoS(MsgPanoFetch, pano)
		PeekTrace(MsgPanoFetch, pano)
		PeekQoS(MsgExec, exec)
	}); n != 0 {
		t.Errorf("the trailer peekers allocate %.0f times, want 0", n)
	}
}
