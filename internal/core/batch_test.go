package core

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// TestRecognizeBatchMatchesSerial is the cloud-side golden contract:
// every batch member's result bytes must equal a serial Recognize of the
// same payload, a malformed member fails alone, and the virtual cost
// charges one pass per unique payload.
func TestRecognizeBatchMatchesSerial(t *testing.T) {
	p := testParams()
	cloud := NewCloud(p)
	golden := NewCloud(p) // fresh twin: serial answers with untouched counters

	cli := NewClient(0, p)
	payloads := make([][]byte, 0, 8)
	for i := 0; i < 3; i++ {
		frame := cli.CaptureFrame(vision.Class(i%int(vision.NumClasses)), uint64(40+i))
		payloads = append(payloads, frame.Bytes())
		payloads = append(payloads, frame.Bytes()) // bit-exact duplicate
	}
	// An equal frame in its own buffer, as two requests carry it: unique
	// frames are counted by content, not by slice.
	payloads = append(payloads, bytes.Clone(payloads[2]))
	payloads = append(payloads, []byte("not a frame")) // malformed member

	results, errs, cost := cloud.RecognizeBatch(payloads)
	if len(results) != len(payloads) || len(errs) != len(payloads) {
		t.Fatalf("result lengths = %d/%d, want %d", len(results), len(errs), len(payloads))
	}
	for i := 0; i < 7; i++ {
		if errs[i] != nil {
			t.Fatalf("member %d failed: %v", i, errs[i])
		}
		want, _, err := golden.Recognize(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(results[i], want) {
			t.Fatalf("member %d result diverges from serial Recognize", i)
		}
	}
	if errs[7] == nil {
		t.Fatal("malformed member did not fail")
	}
	if results[7] != nil {
		t.Fatal("malformed member produced a result")
	}

	// 3 unique valid payloads → exactly 3 serial-equivalent passes of cost.
	_, serialCost, err := golden.Recognize(payloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * serialCost; cost != want {
		t.Fatalf("batch cost = %v, want %v (one pass per unique payload)", cost, want)
	}
}

func execMsg(t testing.TB, cli *Client, reqID uint64, class vision.Class, viewSeed uint64) (wire.Message, []byte) {
	t.Helper()
	frame := cli.CaptureFrame(class, viewSeed)
	desc, _ := cli.Extract(frame)
	body, err := (wire.ExecRequest{
		Task:    wire.TaskRecognize,
		Desc:    desc,
		Payload: frame.Bytes(),
		QoS:     wire.QoSBestEffort,
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return wire.Message{Type: wire.MsgExec, RequestID: reqID, Body: body}, frame.Bytes()
}

// TestTCPCloudBatchGolden pipelines a burst of exec requests at a
// batching cloud: replies must come back in order, byte-identical to
// serial Recognize, and at least one multi-request batch must actually
// have formed.
func TestTCPCloudBatchGolden(t *testing.T) {
	p := testParams()
	cs := &CloudServer{
		Cloud: NewCloud(p),
		// One worker so the burst lands in its drain window.
		ServerCore: ServerCore{Workers: 1, Batch: 8, BatchSlack: 200 * time.Millisecond},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go cs.Serve(ln)

	golden := NewCloud(p)
	cli := NewClient(0, p)
	conn := rawEdgeConn(t, ln.Addr().String(), ModeCoIC)
	defer conn.Close()

	const requests = 8
	payloads := make([][]byte, requests)
	for i := 0; i < requests; i++ {
		// Pairs of bit-identical frames: co-located users.
		msg, payload := execMsg(t, cli, uint64(i+1), vision.Class((i/2)%int(vision.NumClasses)), uint64(7+i/2))
		payloads[i] = payload
		if err := wire.WriteMessage(conn, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < requests; i++ {
		reply, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if reply.RequestID != uint64(i+1) {
			t.Fatalf("reply %d carries request id %d — out of order", i, reply.RequestID)
		}
		if reply.Type != wire.MsgExecReply {
			t.Fatalf("reply %d type = %v", i, reply.Type)
		}
		er, err := wire.UnmarshalExecReply(reply.Body)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := golden.Recognize(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(er.Result, want) {
			t.Fatalf("reply %d result diverges from serial Recognize", i)
		}
	}
	if cs.Batches() == 0 {
		t.Fatal("no multi-request batch formed for a pipelined burst")
	}
	if cs.BatchedRequests() < 2 {
		t.Fatalf("batched requests = %d, want >= 2", cs.BatchedRequests())
	}
}

// TestTCPEdgeBatchCoalesces pipelines identical recognize requests at a
// batching edge: the batch members dispatch concurrently, so their
// identical descriptors must coalesce into a single cloud fetch.
func TestTCPEdgeBatchCoalesces(t *testing.T) {
	p := testParams()
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudLn.Close()
	go (&CloudServer{Cloud: NewCloud(p)}).Serve(cloudLn)

	es := &EdgeServer{
		Edge:       NewEdge(p),
		CloudAddr:  cloudLn.Addr().String(),
		ServerCore: ServerCore{Workers: 1, Batch: 4, BatchSlack: 200 * time.Millisecond},
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer edgeLn.Close()
	go es.Serve(edgeLn)

	cli := NewClient(0, p)
	conn := rawEdgeConn(t, edgeLn.Addr().String(), ModeCoIC)
	defer conn.Close()

	const requests = 4
	for i := 0; i < requests; i++ {
		// The same frame every time: one descriptor, one cloud answer.
		msg, _ := execMsg(t, cli, uint64(i+1), vision.ClassStopSign, 11)
		if err := wire.WriteMessage(conn, msg); err != nil {
			t.Fatal(err)
		}
	}
	var label string
	for i := 0; i < requests; i++ {
		reply, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if reply.Type != wire.MsgExecReply {
			t.Fatalf("reply %d type = %v", i, reply.Type)
		}
		er, err := wire.UnmarshalExecReply(reply.Body)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wire.UnmarshalRecognitionResult(er.Result)
		if err != nil {
			t.Fatal(err)
		}
		if label == "" {
			label = res.Label
		} else if res.Label != label {
			t.Fatalf("reply %d label %q diverges from %q", i, res.Label, label)
		}
	}
	if es.Batches() == 0 {
		t.Fatal("no multi-request batch formed on the edge")
	}
	// All four were in flight together (cache empty, identical
	// descriptor), so the inflight table must have collapsed them into
	// one upstream round trip.
	if got := es.CloudFetches(); got != 1 {
		t.Fatalf("cloud fetches = %d, want 1 (batch members must coalesce)", got)
	}
}

// TestBatchWaitBudget pins the slack policy: interactive heads never
// wait, best-effort heads wait the configured slack capped by their
// deadline, and an expired deadline yields zero.
func TestBatchWaitBudget(t *testing.T) {
	plan := &batchPlan{max: 8, slack: 10 * time.Millisecond}
	now := time.Now()

	interactive := &schedJob{class: wire.QoSInteractive}
	if got := plan.waitBudget(interactive, now); got != 0 {
		t.Fatalf("interactive wait budget = %v, want 0", got)
	}
	be := &schedJob{class: wire.QoSBestEffort}
	if got := plan.waitBudget(be, now); got != plan.slack {
		t.Fatalf("best-effort wait budget = %v, want %v", got, plan.slack)
	}
	be.deadline = now.Add(3 * time.Millisecond)
	if got := plan.waitBudget(be, now); got != 3*time.Millisecond {
		t.Fatalf("deadline-capped budget = %v, want 3ms", got)
	}
	be.deadline = now.Add(-time.Millisecond)
	if got := plan.waitBudget(be, now); got != 0 {
		t.Fatalf("expired-deadline budget = %v, want 0", got)
	}
	var nilPlan *batchPlan
	if nilPlan.batchable(&schedJob{msg: wire.Message{Type: wire.MsgExec}}) {
		t.Fatal("nil plan reported batchable")
	}
}
