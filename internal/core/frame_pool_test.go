package core

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/clock"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// These tests pin the ownership of the pooled request frames a server
// connection reads exec bodies into (conn.takeFrame): a frame is
// released exactly once, at its job's one release point, and nothing
// reads it afterwards — a flight that outlives the job that led it sends
// its own copy.

// frameLedger tracks every pooled frame a server takes and releases
// through its frameHooks, and can poison each frame as it is released
// so a later read of it shows.
type frameLedger struct {
	poison bool

	mu       sync.Mutex
	out      map[*[]byte]bool
	takes    int
	releases int
	errs     []string
}

func (l *frameLedger) hooks() frameHooks {
	l.out = map[*[]byte]bool{}
	return frameHooks{
		take: func(p *[]byte) {
			l.mu.Lock()
			defer l.mu.Unlock()
			if l.out[p] {
				l.errs = append(l.errs, fmt.Sprintf("frame %p taken while still outstanding", p))
			}
			l.out[p] = true
			l.takes++
		},
		release: func(p *[]byte) {
			l.mu.Lock()
			defer l.mu.Unlock()
			if !l.out[p] {
				l.errs = append(l.errs, fmt.Sprintf("frame %p released twice, or never taken", p))
			}
			delete(l.out, p)
			l.releases++
			if l.poison {
				b := *p
				for i := range b {
					b[i] = 0xA5
				}
			}
		},
	}
}

// check asserts that want buffers were taken and every one of them was
// released exactly once.
func (l *frameLedger) check(t *testing.T, want int) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.errs {
		t.Error(e)
	}
	if l.takes != want {
		t.Errorf("pooled buffers taken = %d, want %d", l.takes, want)
	}
	if len(l.out) != 0 || l.releases != l.takes {
		t.Errorf("%d frames taken, %d released, %d still outstanding", l.takes, l.releases, len(l.out))
	}
}

// startFrameCloud is a hand-rolled cloud that records every exec payload
// it receives and answers each with cloud's recognition of that payload
// once hold(i) returns for the i-th exec (0-based). Execs are answered
// concurrently, so a held one holds only itself.
func startFrameCloud(t *testing.T, cloud *Cloud, hold func(i int)) (string, func() [][]byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var mu sync.Mutex
	var payloads [][]byte
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				var wmu sync.Mutex
				reply := func(m wire.Message) {
					wmu.Lock()
					defer wmu.Unlock()
					wire.WriteMessage(nc, m)
				}
				for {
					msg, err := wire.ReadMessage(nc)
					if err != nil {
						return
					}
					switch msg.Type {
					case wire.MsgHello:
						reply(wire.Message{Type: wire.MsgHello, RequestID: msg.RequestID})
						continue
					case wire.MsgExec:
					default:
						continue
					}
					req, err := wire.UnmarshalExecRequest(msg.Body)
					if err != nil {
						t.Errorf("cloud: bad exec: %v", err)
						return
					}
					mu.Lock()
					i := len(payloads)
					payloads = append(payloads, req.Payload)
					mu.Unlock()
					go func() {
						hold(i)
						result, _, err := cloud.Recognize(req.Payload)
						if err != nil {
							reply(errorReply(msg.RequestID, wire.CodeInternal, "%v", err))
							return
						}
						reply(taskKinds[wire.MsgExec].replyWith(msg.RequestID, wire.SourceCloud, result))
					}()
				}
			}()
		}
	}()
	return ln.Addr().String(), func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return append([][]byte(nil), payloads...)
	}
}

// holdFirst returns a hold for startFrameCloud that keeps the first exec
// until release is called, and lets every other one through.
func holdFirst() (hold func(int), release func()) {
	gate := make(chan struct{})
	var once sync.Once
	return func(i int) {
			if i == 0 {
				<-gate
			}
		}, func() {
			once.Do(func() { close(gate) })
		}
}

// unorderedEdgeConn dials addr and says a CoIC hello asking for replies
// in completion order, so a test reads them by RequestID.
func unorderedEdgeConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	body, err := (wire.Hello{Version: wire.HelloVersion, Mode: wire.HelloModeCoIC, Flags: wire.HelloFlagUnordered}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMessage(nc, wire.Message{Type: wire.MsgHello, RequestID: 1 << 40, Body: body}); err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.ReadMessage(nc); err != nil || ack.Type != wire.MsgHello {
		t.Fatalf("hello ack = %v, %v", ack.Type, err)
	}
	return nc
}

// send writes msgs to nc in order.
func send(t *testing.T, nc net.Conn, msgs ...wire.Message) {
	t.Helper()
	for _, m := range msgs {
		if err := wire.WriteMessage(nc, m); err != nil {
			t.Fatal(err)
		}
	}
}

// readReplies reads n frames from nc, keyed by RequestID.
func readReplies(t *testing.T, nc net.Conn, n int) map[uint64]wire.Message {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	defer nc.SetReadDeadline(time.Time{})
	got := make(map[uint64]wire.Message, n)
	for len(got) < n {
		m, err := wire.ReadMessage(nc)
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(got), n, err)
		}
		got[m.RequestID] = m
	}
	return got
}

// wantLabel asserts that m is an exec reply naming class.
func wantLabel(t *testing.T, p Params, m wire.Message, class vision.Class) {
	t.Helper()
	if m.Type != wire.MsgExecReply {
		t.Fatalf("request %d answered %v (%v), want an exec reply", m.RequestID, m.Type, ReplyError(m))
	}
	rep, err := wire.UnmarshalExecReply(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wire.UnmarshalRecognitionResult(rep.Result)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Classes()[class]; res.Label != want {
		t.Fatalf("request %d labelled %q, want %q", m.RequestID, res.Label, want)
	}
}

// wantCode asserts that m is an error reply carrying code.
func wantCode(t *testing.T, m wire.Message, code uint16) {
	t.Helper()
	er, err := wire.UnmarshalErrorReply(m.Body)
	if m.Type != wire.MsgError || err != nil || er.Code != code {
		t.Fatalf("request %d answered %v %+v, want error code %d", m.RequestID, m.Type, er, code)
	}
}

// TestPooledFrameOutlivesDepartingLeader: client A's CoIC miss leads a
// flight, client B joins it, and A cancels before the flight has sent
// anything upstream (the single upstream slot is held by another
// fetch). A's job answers and releases its frame, which the test then
// overwrites; the cloud must still receive A's exact frame, and B the
// right label.
func TestPooledFrameOutlivesDepartingLeader(t *testing.T) {
	p := testParams()
	hold, release := holdFirst()
	defer release()
	cloudAddr, received := startFrameCloud(t, NewCloud(p), hold)
	ledger := &frameLedger{poison: true}
	es := &EdgeServer{
		Edge:        NewEdge(p),
		CloudAddr:   cloudAddr,
		MaxUpstream: 1,
		ServerCore:  ServerCore{frames: ledger.hooks()},
	}
	addr := serveEdge(t, es)

	cli := NewClient(0, p)
	blocker, _ := execMsg(t, cli, 10, 0, 3)
	const class = vision.Class(1)
	msgA, frameA := execMsg(t, cli, 20, class, 7)
	msgB := msgA
	msgB.RequestID = 30

	c := unorderedEdgeConn(t, addr)
	send(t, c, blocker)
	waitFor(t, "the cloud to hold the first fetch", func() bool { return len(received()) == 1 })

	a := unorderedEdgeConn(t, addr)
	send(t, a, msgA)
	waitFor(t, "A to lead a flight", func() bool { return es.Edge.Inflight().Len() == 2 })
	b := unorderedEdgeConn(t, addr)
	send(t, b, msgB)
	waitFor(t, "B to join A's flight", func() bool { return es.Edge.Inflight().Stats().Coalesced == 1 })

	cancelBody, err := (wire.CancelRequest{TargetID: msgA.RequestID}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	send(t, a, wire.Message{Type: wire.MsgCancel, RequestID: 21, Body: cancelBody})
	wantCode(t, readReplies(t, a, 2)[msgA.RequestID], wire.CodeCanceled)
	if n := len(received()); n != 1 {
		t.Fatalf("the cloud saw %d fetches before the slot was free, want 1", n)
	}

	release()
	wantLabel(t, p, readReplies(t, b, 1)[msgB.RequestID], class)
	wantLabel(t, p, readReplies(t, c, 1)[blocker.RequestID], 0)
	got := received()
	if len(got) != 2 {
		t.Fatalf("the cloud saw %d fetches, want 2 (the blocker, then A's flight)", len(got))
	}
	if !bytes.Equal(got[1], frameA) {
		t.Fatal("the cloud received a frame that differs from A's: the flight read A's recycled buffer")
	}
	ledger.check(t, 3)
}

// TestPooledFrameReleasedOnceOnEveryPath drives every way an admitted or
// refused exec request leaves a connection and asserts that each pooled
// frame taken is returned exactly once.
func TestPooledFrameReleasedOnceOnEveryPath(t *testing.T) {
	p := testParams()
	cloud, cli := NewCloud(p), NewClient(0, p)
	exec := func(reqID uint64, class vision.Class, deadline time.Time) wire.Message {
		frame := cli.CaptureFrame(class, reqID)
		desc, _ := cli.Extract(frame)
		req := wire.ExecRequest{Task: wire.TaskRecognize, Desc: desc, Payload: frame.Bytes(), QoS: wire.QoSBestEffort}
		if !deadline.IsZero() {
			req.Deadline = deadline.UnixMicro()
		}
		body, err := req.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return wire.Message{Type: wire.MsgExec, RequestID: reqID, Body: body}
	}
	// stack serves an edge tuned by tune in front of a cloud that holds
	// its first fetch until release.
	stack := func(t *testing.T, tune func(*EdgeServer)) (*EdgeServer, net.Conn, *frameLedger, func() [][]byte, func()) {
		hold, release := holdFirst()
		t.Cleanup(release)
		cloudAddr, received := startFrameCloud(t, cloud, hold)
		ledger := &frameLedger{}
		es := &EdgeServer{Edge: NewEdge(p), CloudAddr: cloudAddr}
		tune(es)
		es.frames = ledger.hooks()
		return es, unorderedEdgeConn(t, serveEdge(t, es)), ledger, received, release
	}

	t.Run("served", func(t *testing.T) {
		_, c, ledger, _, release := stack(t, func(*EdgeServer) {})
		release()
		send(t, c, exec(1, 0, time.Time{}), exec(2, 1, time.Time{}))
		got := readReplies(t, c, 2)
		wantLabel(t, p, got[1], 0)
		wantLabel(t, p, got[2], 1)
		send(t, c, exec(1, 0, time.Time{})) // now a cache hit
		wantLabel(t, p, readReplies(t, c, 1)[1], 0)
		ledger.check(t, 3)
	})

	t.Run("overloaded", func(t *testing.T) {
		es, c, ledger, received, release := stack(t, func(es *EdgeServer) { es.Workers, es.QueueDepth = 1, 1 })
		send(t, c, exec(1, 0, time.Time{}))
		waitFor(t, "the worker to be busy upstream", func() bool { return len(received()) == 1 })
		send(t, c, exec(2, 1, time.Time{}), exec(3, 2, time.Time{}))
		wantCode(t, readReplies(t, c, 1)[3], wire.CodeOverloaded)
		release()
		got := readReplies(t, c, 2)
		wantLabel(t, p, got[1], 0)
		wantLabel(t, p, got[2], 1)
		if es.Overloads() != 1 {
			t.Fatalf("overloads = %d, want 1", es.Overloads())
		}
		ledger.check(t, 3)
	})

	t.Run("over quota", func(t *testing.T) {
		_, c, ledger, _, release := stack(t, func(es *EdgeServer) {
			es.Tenants = NewTenantPolicy(clock.NewVirtual(time.Unix(0, 0)))
			es.Tenants.Set(DefaultTenant, TenantLimit{Rate: 1, Burst: 1})
		})
		release()
		send(t, c, exec(1, 0, time.Time{}), exec(2, 1, time.Time{}))
		got := readReplies(t, c, 2)
		wantLabel(t, p, got[1], 0)
		wantCode(t, got[2], wire.CodeQuotaExceeded)
		ledger.check(t, 2)
	})

	t.Run("shed while queued", func(t *testing.T) {
		es, c, ledger, received, release := stack(t, func(es *EdgeServer) { es.Workers = 1 })
		send(t, c, exec(1, 0, time.Time{}))
		waitFor(t, "the worker to be busy upstream", func() bool { return len(received()) == 1 })
		send(t, c, exec(2, 1, time.Now().Add(50*time.Millisecond)))
		time.Sleep(100 * time.Millisecond)
		release()
		got := readReplies(t, c, 2)
		wantLabel(t, p, got[1], 0)
		wantCode(t, got[2], wire.CodeDeadlineExceeded)
		if es.DeadlineSheds() != 1 {
			t.Fatalf("deadline sheds = %d, want 1", es.DeadlineSheds())
		}
		ledger.check(t, 2)
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		_, c, ledger, received, release := stack(t, func(es *EdgeServer) { es.Workers = 1 })
		send(t, c, exec(1, 0, time.Time{}))
		waitFor(t, "the worker to be busy upstream", func() bool { return len(received()) == 1 })
		cancelBody, err := (wire.CancelRequest{TargetID: 2}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		send(t, c, exec(2, 1, time.Time{}), wire.Message{Type: wire.MsgCancel, RequestID: 3, Body: cancelBody})
		readReplies(t, c, 1) // the cancel's ack: the reader has cancelled 2
		release()
		got := readReplies(t, c, 2)
		wantLabel(t, p, got[1], 0)
		wantCode(t, got[2], wire.CodeCanceled)
		ledger.check(t, 2)
	})
}
