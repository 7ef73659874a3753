package core

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/wire"
)

// startRecordingCloud is a hand-rolled cloud that records the order pano
// fetches arrive in — the observable trace of the edge scheduler's
// dispatch order — and can delay its first reply to hold the edge's
// worker busy while later requests queue.
func startRecordingCloud(t testing.TB, firstDelay time.Duration) (string, func() []uint32, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []uint32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					msg, err := wire.ReadMessage(conn)
					if err != nil {
						return
					}
					if msg.Type == wire.MsgHello {
						// The edge's upstream link awaits its hello ack.
						wire.WriteMessage(conn, wire.Message{Type: wire.MsgHello, RequestID: msg.RequestID})
						continue
					}
					if msg.Type != wire.MsgPanoFetch {
						continue
					}
					pf, err := wire.UnmarshalPanoFetch(msg.Body)
					if err != nil {
						continue
					}
					mu.Lock()
					first := len(order) == 0
					order = append(order, pf.FrameIndex)
					mu.Unlock()
					if first && firstDelay > 0 {
						time.Sleep(firstDelay)
					}
					body, _ := (wire.PanoReply{Source: wire.SourceCloud, Data: []byte{1, 2, 3}}).Marshal()
					wire.WriteMessage(conn, wire.Message{Type: wire.MsgPanoReply, RequestID: msg.RequestID, Body: body})
				}
			}()
		}
	}()
	snapshot := func() []uint32 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint32(nil), order...)
	}
	return ln.Addr().String(), snapshot, func() { ln.Close() }
}

func startQoSEdge(t testing.TB, cloudAddr string, workers, queue int) (string, *EdgeServer, func()) {
	t.Helper()
	es := &EdgeServer{
		Edge:       NewEdge(testParams()),
		CloudAddr:  cloudAddr,
		ServerCore: ServerCore{Workers: workers, QueueDepth: queue},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go es.Serve(ln)
	return ln.Addr().String(), es, func() { ln.Close() }
}

func qosPanoMsg(t testing.TB, reqID uint64, frame int, class wire.QoS, deadline time.Time) wire.Message {
	t.Helper()
	pf := wire.PanoFetch{VideoID: "qos-video", FrameIndex: uint32(frame), QoS: class}
	if !deadline.IsZero() {
		pf.Deadline = deadline.UnixMicro()
	}
	body, err := pf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return wire.Message{Type: wire.MsgPanoFetch, RequestID: reqID, Body: body}
}

// TestTCPInteractiveJumpsBestEffortQueue pins the strict class ordering:
// with one worker held busy, a later interactive request must be
// dispatched — and therefore reach the cloud — before earlier-queued
// best-effort ones.
func TestTCPInteractiveJumpsBestEffortQueue(t *testing.T) {
	cloudAddr, order, stopCloud := startRecordingCloud(t, 600*time.Millisecond)
	defer stopCloud()
	addr, es, stop := startQoSEdge(t, cloudAddr, 1, 16)
	defer stop()

	conn := rawEdgeConn(t, addr, ModeCoIC)
	defer conn.Close()

	// Request 1 occupies the lone worker (its fetch stalls at the cloud).
	if err := wire.WriteMessage(conn, qosPanoMsg(t, 1, 100, wire.QoSBestEffort, time.Time{})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first fetch to reach the cloud", func() bool { return len(order()) == 1 })

	// Two best-effort requests queue, then an interactive one arrives.
	for id, frame := uint64(2), 101; id <= 3; id, frame = id+1, frame+1 {
		if err := wire.WriteMessage(conn, qosPanoMsg(t, id, frame, wire.QoSBestEffort, time.Time{})); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the best-effort requests to queue", func() bool {
		return es.Admitted(wire.QoSBestEffort) == 3
	})
	if err := wire.WriteMessage(conn, qosPanoMsg(t, 4, 200, wire.QoSInteractive, time.Time{})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the interactive request to queue", func() bool {
		return es.Admitted(wire.QoSInteractive) == 1
	})

	// Drain all four replies (completion order on the wire).
	replies := readReplies(t, conn, 4)
	for i := uint64(1); i <= 4; i++ {
		if reply, ok := replies[i]; !ok || reply.Type != wire.MsgPanoReply {
			t.Fatalf("request %d answered %v (present %v), want a pano reply", i, reply.Type, ok)
		}
	}
	got := order()
	if len(got) != 4 {
		t.Fatalf("cloud saw %d fetches, want 4", len(got))
	}
	if got[1] != 200 {
		t.Fatalf("cloud fetch order = %v: the interactive frame (200) must be dispatched before queued best-effort ones", got)
	}
}

// TestTCPExpiredDeadlineShedBeforeWork pins shed-before-work: a request
// whose deadline passes while queued is answered CodeDeadlineExceeded
// without consuming a worker or an upstream fetch, and the shed is
// visible in the server's counters.
func TestTCPExpiredDeadlineShedBeforeWork(t *testing.T) {
	cloudAddr, order, stopCloud := startRecordingCloud(t, 500*time.Millisecond)
	defer stopCloud()
	addr, es, stop := startQoSEdge(t, cloudAddr, 1, 16)
	defer stop()

	conn := rawEdgeConn(t, addr, ModeCoIC)
	defer conn.Close()

	if err := wire.WriteMessage(conn, qosPanoMsg(t, 1, 300, wire.QoSBestEffort, time.Time{})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first fetch to reach the cloud", func() bool { return len(order()) == 1 })

	// This deadline expires long before the worker frees up.
	if err := wire.WriteMessage(conn, qosPanoMsg(t, 2, 301, wire.QoSInteractive, time.Now().Add(50*time.Millisecond))); err != nil {
		t.Fatal(err)
	}

	replies := readReplies(t, conn, 2)
	if reply1, ok := replies[1]; !ok || reply1.Type != wire.MsgPanoReply {
		t.Fatalf("request 1 answered %v (present %v), want a pano reply", reply1.Type, ok)
	}
	reply2, ok := replies[2]
	if !ok || reply2.Type != wire.MsgError {
		t.Fatalf("request 2 answered %v (present %v), want an error reply", reply2.Type, ok)
	}
	er, err := wire.UnmarshalErrorReply(reply2.Body)
	if err != nil || er.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("reply 2 code = %d err %v, want CodeDeadlineExceeded", er.Code, err)
	}

	if got := es.DeadlineSheds(); got != 1 {
		t.Fatalf("DeadlineSheds = %d, want 1", got)
	}
	if got := es.CloudFetches(); got != 1 {
		t.Fatalf("cloud fetches = %d, want 1 — the shed request must not fetch", got)
	}
	if got := order(); len(got) != 1 {
		t.Fatalf("cloud saw frames %v — the shed request reached the cloud", got)
	}
	if es.Admitted(wire.QoSInteractive) != 1 || es.Admitted(wire.QoSBestEffort) != 1 {
		t.Fatalf("admitted = %d interactive / %d best-effort, want 1/1",
			es.Admitted(wire.QoSInteractive), es.Admitted(wire.QoSBestEffort))
	}
}

// TestTCPLegacyFramesScheduleBestEffort: frames without a QoS trailer
// (pre-QoS clients) keep flowing and land in the best-effort class.
func TestTCPLegacyFramesScheduleBestEffort(t *testing.T) {
	cloudAddr, _, stopCloud := startRecordingCloud(t, 0)
	defer stopCloud()
	addr, es, stop := startQoSEdge(t, cloudAddr, 2, 8)
	defer stop()

	conn := rawEdgeConn(t, addr, ModeCoIC)
	defer conn.Close()
	if err := wire.WriteMessage(conn, panoFetchMsg(t, 1, "legacy-video", 1)); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadMessage(conn)
	if err != nil || reply.Type != wire.MsgPanoReply {
		t.Fatalf("legacy request reply = %v, %v", reply.Type, err)
	}
	if es.Admitted(wire.QoSBestEffort) != 1 || es.Admitted(wire.QoSInteractive) != 0 {
		t.Fatalf("legacy frame admitted as %d/%d (be/int), want 1/0",
			es.Admitted(wire.QoSBestEffort), es.Admitted(wire.QoSInteractive))
	}
}
