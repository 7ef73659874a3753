package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/obs"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// startSlowStack brings up a cloud + edge where every edge→cloud frame
// pays an extra one-way delay, stretching the fetch window so concurrency
// tests observe requests genuinely in flight together.
func startSlowStack(t testing.TB, p Params, cloudDelay time.Duration, tune func(*EdgeServer)) (string, *EdgeServer, func()) {
	t.Helper()
	cloud := NewCloud(p)
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go (&CloudServer{Cloud: cloud}).Serve(cloudLn)

	es := &EdgeServer{
		Edge:      NewEdge(p),
		CloudAddr: cloudLn.Addr().String(),
		WrapCloud: func(c net.Conn) net.Conn { return netsim.NewShaper(c, 0, cloudDelay) },
	}
	if tune != nil {
		tune(es)
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go es.Serve(edgeLn)
	return edgeLn.Addr().String(), es, func() {
		edgeLn.Close()
		cloudLn.Close()
	}
}

// startHungCloud listens and swallows every byte without ever replying —
// the pathological upstream that per-fetch timeouts exist for.
func startHungCloud(t *testing.T) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// serveEdge serves es on a fresh loopback listener until the test ends
// and returns its address.
func serveEdge(t *testing.T, es *EdgeServer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go es.Serve(ln)
	return ln.Addr().String()
}

// TestTCPSimultaneousClientsOneCloudFetch is the coalescing acceptance
// test, over every cacheable task type: clients missing on the same
// descriptor at the same moment must cost exactly one cloud computation
// (the leader answers SourceCloud, the waiters SourceEdge); a cloud
// failure reaches every one of them with the cloud's own error code; and
// in origin mode the same requests are forwarded one for one, touching
// neither the cache nor the in-flight table.
func TestTCPSimultaneousClientsOneCloudFetch(t *testing.T) {
	p := testParams()
	const clients = 2
	for _, task := range []struct {
		name    string
		task    Task
		errCode uint16 // what the failing cloud answers this task with
	}{
		{"recognize", RecognizeTask(vision.ClassCar, 7), wire.CodeInternal},
		{"render", RenderTask(AnnotationModelID("dog")), wire.CodeUnknownModel},
		{"pano", PanoTask("coalesce-video", 7, pano.Viewport{Yaw: 0.3, FOV: 1.5}), wire.CodeUnavailable},
	} {
		// together sends the task's request from `clients` connections in
		// the given mode at the same moment, returning each reply's source
		// or error.
		together := func(t *testing.T, addr string, mode Mode) ([]uint8, []error) {
			t.Helper()
			clis := make([]*taskClient, clients)
			msgs := make([]wire.Message, clients)
			for i := range clis {
				// The same client identity: identical frames, hence
				// identical recognition descriptors.
				cli, err := dialEdge(addr, NewClient(0, p), mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { cli.Close() })
				clis[i] = cli
				if msgs[i], err = cli.Build(task.task, wire.QoSBestEffort, time.Time{}, 0); err != nil {
					t.Fatal(err)
				}
			}
			sources, errs := make([]uint8, clients), make([]error, clients)
			var start, done sync.WaitGroup
			start.Add(1)
			for i := range clis {
				done.Add(1)
				go func() {
					defer done.Done()
					start.Wait()
					reply, err := clis[i].RoundTrip(context.Background(), msgs[i])
					if err == nil {
						_, sources[i], err = clis[i].Finish(task.task, reply)
					}
					errs[i] = err
				}()
			}
			start.Done()
			done.Wait()
			return sources, errs
		}

		t.Run(task.name+"/coalesce", func(t *testing.T) {
			t.Parallel()
			addr, es, stop := startSlowStack(t, p, 150*time.Millisecond, nil)
			defer stop()
			sources, errs := together(t, addr, ModeCoIC)
			fromCloud := 0
			for i, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
				switch sources[i] {
				case wire.SourceCloud:
					fromCloud++
				case wire.SourceEdge:
				default:
					t.Fatalf("reply %d source = %d", i, sources[i])
				}
			}
			if fromCloud != 1 {
				t.Fatalf("%d replies report SourceCloud, want exactly 1 (the flight's leader)", fromCloud)
			}
			if got := es.CloudFetches(); got != 1 {
				t.Fatalf("cloud fetches = %d, want exactly 1 (the other request must coalesce)", got)
			}
			st := es.Edge.Inflight().Stats()
			if st.Fetches != 1 || st.Coalesced != clients-1 {
				t.Fatalf("inflight stats = %+v, want 1 fetch and %d coalesced", st, clients-1)
			}
			if got := es.Edge.Stats().Inserts; got != 1 {
				t.Fatalf("inserts = %d, want 1 (the leader's)", got)
			}
		})

		t.Run(task.name+"/cloud error", func(t *testing.T) {
			t.Parallel()
			failing := startFakeEnd(t, func(msg wire.Message, reply func(wire.Message)) {
				go func() {
					time.Sleep(300 * time.Millisecond) // hold the flight open for the waiters
					reply(errorReply(msg.RequestID, task.errCode, "the cloud says no"))
				}()
			})
			es := &EdgeServer{Edge: NewEdge(p), CloudAddr: failing.addr}
			_, errs := together(t, serveEdge(t, es), ModeCoIC)
			for i, err := range errs {
				var re *RemoteError
				if !errors.As(err, &re) || re.Code != task.errCode || re.Msg != "the cloud says no" {
					t.Fatalf("client %d got %v, want the cloud's error code %d unchanged", i, err, task.errCode)
				}
			}
			if got := es.CloudFetches(); got != 1 {
				t.Fatalf("cloud fetches = %d, want 1 (the failure is shared, not retried)", got)
			}
			if es.Edge.Inflight().Len() != 0 || es.Edge.Stats().Inserts != 0 {
				t.Fatal("a failed fetch left the descriptor in flight or cached something")
			}
		})

		t.Run(task.name+"/origin", func(t *testing.T) {
			t.Parallel()
			addr, es, stop := startSlowStack(t, p, 0, nil)
			defer stop()
			sources, errs := together(t, addr, ModeOrigin)
			for i, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
				if sources[i] != wire.SourceCloud {
					t.Fatalf("origin reply %d source = %d, want the cloud's reply forwarded as is", i, sources[i])
				}
			}
			if got := es.CloudFetches(); got != clients {
				t.Fatalf("origin cloud fetches = %d, want %d (no coalescing)", got, clients)
			}
			est, ist := es.Edge.Stats(), es.Edge.Inflight().Stats()
			if est.Inserts != 0 || ist.Fetches != 0 {
				t.Fatalf("origin mode touched the cache or the in-flight table: %+v %+v", est, ist)
			}
			for tk, n := range est.Lookups {
				if n != 0 {
					t.Fatalf("origin mode looked task %v up %d times", tk, n)
				}
			}
		})
	}
}

// rawEdgeConn dials the edge and completes the legacy (version-0,
// one-byte) hello exchange, returning the bare connection for pipelined
// frame-level tests. Replies on such a connection are positional.
func rawEdgeConn(t testing.TB, addr string, mode Mode) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Message{Type: wire.MsgHello, RequestID: 1, Body: []byte{byte(mode)}}
	if err := wire.WriteMessage(conn, hello); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

func panoFetchMsg(t testing.TB, reqID uint64, video string, frame int) wire.Message {
	t.Helper()
	body, err := (wire.PanoFetch{VideoID: video, FrameIndex: uint32(frame)}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return wire.Message{Type: wire.MsgPanoFetch, RequestID: reqID, Body: body}
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

// TestTCPCloudPipelinedBurstMatchesSerial pipelines a burst of exec
// requests at a cloud: the worker pool runs them concurrently, and the
// replies must still come back in order, byte-identical to serial
// Recognize.
func TestTCPCloudPipelinedBurstMatchesSerial(t *testing.T) {
	p := testParams()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go (&CloudServer{Cloud: NewCloud(p)}).Serve(ln)

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
}

// TestTCPEdgePipelinedDuplicatesCoalesce pipelines identical recognize
// requests on one connection at an edge with the default worker pool:
// the workers dispatch them concurrently, so their identical descriptors
// must coalesce into a single cloud fetch in the in-flight table (or hit
// the entry it inserted).
func TestTCPEdgePipelinedDuplicatesCoalesce(t *testing.T) {
	p := testParams()
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudLn.Close()
	go (&CloudServer{Cloud: NewCloud(p)}).Serve(cloudLn)

	es := &EdgeServer{Edge: NewEdge(p), CloudAddr: cloudLn.Addr().String()}
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
	if got := es.CloudFetches(); got != 1 {
		t.Fatalf("cloud fetches = %d, want 1 (pipelined duplicates must coalesce)", got)
	}
}

// TestTCPPipelinedRepliesInOrder writes a burst of requests back-to-back
// before reading anything; the replies must come back complete and in
// arrival order even though the misses resolve concurrently upstream.
// Both positional dialects are covered: a connection that sent the
// legacy version-0 hello and one that sent no hello at all.
func TestTCPPipelinedRepliesInOrder(t *testing.T) {
	p := testParams()
	addr, _, stop := startSlowStack(t, p, 30*time.Millisecond, nil)
	defer stop()

	helloLess, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for name, conn := range map[string]net.Conn{
		"version-0 hello": rawEdgeConn(t, addr, ModeCoIC),
		"no hello":        helloLess,
	} {
		defer conn.Close()
		const requests = 6
		for i := 1; i <= requests; i++ {
			// Distinct frames: every request is a miss with its own fetch.
			if err := wire.WriteMessage(conn, panoFetchMsg(t, uint64(i), "pipeline-video/"+name, i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= requests; i++ {
			reply, err := wire.ReadMessage(conn)
			if err != nil {
				t.Fatalf("%s: reply %d: %v", name, i, err)
			}
			if reply.RequestID != uint64(i) {
				t.Fatalf("%s: reply %d carries request id %d — out of order", name, i, reply.RequestID)
			}
			if reply.Type != wire.MsgPanoReply {
				t.Fatalf("%s: reply %d type = %v", name, i, reply.Type)
			}
		}
	}
}

// TestTCPOverloadReply floods a deliberately tiny worker pool backed by a
// hung cloud: excess requests must be rejected with CodeOverloaded, in
// order, while admitted ones fail with the fetch timeout instead of
// wedging the connection.
func TestTCPOverloadReply(t *testing.T) {
	p := testParams()
	cloudAddr, stopCloud := startHungCloud(t)
	defer stopCloud()

	es := &EdgeServer{
		Edge:         NewEdge(p),
		CloudAddr:    cloudAddr,
		ServerCore:   ServerCore{Workers: 1, QueueDepth: 1},
		FetchTimeout: 400 * time.Millisecond,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go es.Serve(ln)

	conn := rawEdgeConn(t, ln.Addr().String(), ModeCoIC)
	defer conn.Close()

	const requests = 8
	for i := 1; i <= requests; i++ {
		if err := wire.WriteMessage(conn, panoFetchMsg(t, uint64(i), "overload-video", i)); err != nil {
			t.Fatal(err)
		}
	}
	overloaded, unavailable := 0, 0
	for i := 1; i <= requests; i++ {
		reply, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if reply.RequestID != uint64(i) {
			t.Fatalf("reply %d carries request id %d — out of order", i, reply.RequestID)
		}
		if reply.Type != wire.MsgError {
			t.Fatalf("reply %d type = %v, want error", i, reply.Type)
		}
		er, err := wire.UnmarshalErrorReply(reply.Body)
		if err != nil {
			t.Fatal(err)
		}
		switch er.Code {
		case wire.CodeOverloaded:
			overloaded++
		case wire.CodeUnavailable:
			unavailable++
		default:
			t.Fatalf("reply %d code = %d", i, er.Code)
		}
	}
	// Every request gets exactly one of the two failure replies. The
	// shed/timeout split is timing-dependent: once the reply-slot budget
	// (2×(workers+queue)) is consumed the reader applies TCP backpressure
	// instead of shedding further, so later requests are admitted as the
	// stalled head drains. Both behaviours must be visible.
	if overloaded+unavailable != requests {
		t.Fatalf("replies = %d overloaded + %d unavailable, want %d total", overloaded, unavailable, requests)
	}
	if overloaded == 0 {
		t.Fatal("no request was shed with an overload reply")
	}
	if unavailable == 0 {
		t.Fatal("no admitted request surfaced the cloud fetch timeout")
	}
	if got := es.Overloads(); got != uint64(overloaded) {
		t.Fatalf("server overload counter = %d, client saw %d", got, overloaded)
	}
}

// TestTCPHungCloudFailsCoalescedGroup verifies the per-fetch timeout
// propagates to every waiter of a coalesced flight — a hung cloud must
// not wedge the group — and that the failure does not poison the
// descriptor.
func TestTCPHungCloudFailsCoalescedGroup(t *testing.T) {
	p := testParams()
	cloudAddr, stopCloud := startHungCloud(t)
	defer stopCloud()

	es := &EdgeServer{
		Edge:         NewEdge(p),
		CloudAddr:    cloudAddr,
		FetchTimeout: 300 * time.Millisecond,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go es.Serve(ln)

	const clients = 3
	vp := pano.Viewport{Yaw: 0.1, FOV: 1.4}
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		cli, err := dialEdge(ln.Addr().String(), NewClient(i, p), ModeCoIC, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		go func() {
			defer done.Done()
			start.Wait()
			_, err := cli.Pano("hung-video", 1, vp)
			errs <- err
		}()
	}
	start.Done()
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("coalesced group wedged behind the hung cloud")
	}
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("request against a hung cloud succeeded")
		}
	}
	if st := es.Edge.Inflight().Stats(); st.Failures == 0 {
		t.Fatalf("inflight stats = %+v, want the failed flight recorded", st)
	}
	if es.Edge.Inflight().Len() != 0 {
		t.Fatal("failed fetch left the descriptor in flight (poisoned)")
	}
}

// TestTCPOriginModeStillForwards covers the origin passthrough — no cache
// reads, no coalescing, every request to the cloud, each round trip timed
// as cloud_fetch and its reply checked like a miss's — and that a later
// hello switches the same connection's mode in either direction, while a
// hello naming an unknown mode is refused and changes nothing.
func TestTCPOriginModeStillForwards(t *testing.T) {
	p := testParams()
	addr, es, stop := startSlowStack(t, p, 0, func(es *EdgeServer) {
		es.Obs = NewServerObs(obs.NewRegistry(), nil)
	})
	defer stop()

	conn := rawEdgeConn(t, addr, ModeOrigin)
	defer conn.Close()
	nextID := uint64(1)
	// fetch round-trips the one panorama frame this test asks for and
	// returns the reply's source.
	fetch := func() uint8 {
		t.Helper()
		nextID++
		if err := wire.WriteMessage(conn, panoFetchMsg(t, nextID, "origin-video", 5)); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != wire.MsgPanoReply || reply.RequestID != nextID {
			t.Fatalf("reply = %v id %d, want the pano reply to request %d", reply.Type, reply.RequestID, nextID)
		}
		pr, err := wire.UnmarshalPanoReply(reply.Body)
		if err != nil {
			t.Fatal(err)
		}
		return pr.Source
	}
	// hello sends a legacy one-byte hello and returns the answer's type.
	hello := func(mode byte) wire.Message {
		t.Helper()
		nextID++
		if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgHello, RequestID: nextID, Body: []byte{mode}}); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	expect := func(step string, source, wantSource uint8, wantFetches uint64) {
		t.Helper()
		if source != wantSource || es.CloudFetches() != wantFetches {
			t.Fatalf("%s: source %d with %d cloud fetches so far, want source %d with %d",
				step, source, es.CloudFetches(), wantSource, wantFetches)
		}
	}

	// Identical origin requests must both hit the cloud (no cache, no
	// coalescing on the origin path).
	expect("origin", fetch(), wire.SourceCloud, 1)
	expect("origin again", fetch(), wire.SourceCloud, 2)
	if got := es.Edge.Stats().Inserts; got != 0 {
		t.Fatalf("origin mode inserted %d entries into the cache", got)
	}

	if ack := hello(wire.HelloModeCoIC); ack.Type != wire.MsgHello {
		t.Fatalf("switch to CoIC answered %v", ack.Type)
	}
	expect("CoIC miss", fetch(), wire.SourceCloud, 3)
	expect("CoIC hit", fetch(), wire.SourceEdge, 3)

	refusal := hello(7)
	if er, err := wire.UnmarshalErrorReply(refusal.Body); refusal.Type != wire.MsgError || err != nil || er.Code != wire.CodeBadRequest {
		t.Fatalf("hello with unknown mode 7 answered %v %+v (%v), want CodeBadRequest", refusal.Type, er, err)
	}
	expect("still CoIC after the refused hello", fetch(), wire.SourceEdge, 3)

	if ack := hello(wire.HelloModeOrigin); ack.Type != wire.MsgHello {
		t.Fatalf("switch back to origin answered %v", ack.Type)
	}
	expect("origin once more", fetch(), wire.SourceCloud, 4)
	if got := es.Obs.cloudFetch.Count(); got != es.CloudFetches() {
		t.Errorf("cloud_fetch stage observed %d round trips, the edge made %d", got, es.CloudFetches())
	}

	// A cloud that answers a pano fetch with an exec reply: the origin
	// path must refuse the reply, not hand it to the client.
	wrong := startFakeEnd(t, func(msg wire.Message, reply func(wire.Message)) {
		body, _ := (wire.ExecReply{Source: wire.SourceCloud}).Marshal()
		reply(wire.Message{Type: wire.MsgExecReply, RequestID: msg.RequestID, Body: body})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go (&EdgeServer{Edge: NewEdge(p), CloudAddr: wrong.addr}).Serve(ln)
	conn2 := rawEdgeConn(t, ln.Addr().String(), ModeOrigin)
	defer conn2.Close()
	if err := wire.WriteMessage(conn2, panoFetchMsg(t, 2, "origin-video", 5)); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadMessage(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if er, err := wire.UnmarshalErrorReply(reply.Body); reply.Type != wire.MsgError || err != nil || er.Code != wire.CodeInternal {
		t.Fatalf("wrong-typed cloud reply reached the origin client as %v %+v (%v), want CodeInternal", reply.Type, er, err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPOrderedCancelAbortsFetchAndKeepsConnection: on a positional
// (ordered) connection a MsgCancel naming an in-flight fetch aborts the
// now-waiterless coalesced flight (last-waiter-cancels), the cancelled
// request still answers in its own slot — CodeCanceled, before the
// cancel's ack, in arrival order — and once a lock-step client has
// drained those two frames the same connection serves the next request
// cleanly.
func TestTCPOrderedCancelAbortsFetchAndKeepsConnection(t *testing.T) {
	p := testParams()
	addr, es, stop := startSlowStack(t, p, 400*time.Millisecond, nil)
	defer stop()

	conn := rawEdgeConn(t, addr, ModeCoIC)
	defer conn.Close()

	if err := wire.WriteMessage(conn, panoFetchMsg(t, 2, "cancel-video", 3)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the fetch to start", func() bool { return es.Edge.Inflight().Len() == 1 })
	body, err := (wire.CancelRequest{TargetID: 2}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgCancel, RequestID: 3, Body: body}); err != nil {
		t.Fatal(err)
	}

	// Drain, in order: the aborted request's reply, then the cancel ack.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatalf("cancelled request's reply: %v", err)
	}
	if reply.RequestID != 2 || reply.Type != wire.MsgError {
		t.Fatalf("first drained frame = %v id %d, want the cancelled request's error", reply.Type, reply.RequestID)
	}
	if er, err := wire.UnmarshalErrorReply(reply.Body); err != nil || er.Code != wire.CodeCanceled {
		t.Fatalf("cancelled request answered %+v (%v), want CodeCanceled", er, err)
	}
	ack, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatalf("cancel ack: %v", err)
	}
	if ack.RequestID != 3 || ack.Type != wire.MsgCancel {
		t.Fatalf("second drained frame = %v id %d, want the cancel ack", ack.Type, ack.RequestID)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — the edge waited out the fetch instead of aborting", elapsed)
	}
	conn.SetReadDeadline(time.Time{})
	waitFor(t, "the abandoned flight to abort", func() bool {
		return es.Edge.Inflight().Stats().Canceled == 1 && es.Edge.Inflight().Len() == 0
	})

	// The connection is still aligned: the next request round-trips.
	if err := wire.WriteMessage(conn, panoFetchMsg(t, 4, "cancel-video", 4)); err != nil {
		t.Fatal(err)
	}
	next, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatalf("post-cancel request failed: %v", err)
	}
	if next.RequestID != 4 || next.Type != wire.MsgPanoReply {
		t.Fatalf("post-cancel reply = %v id %d", next.Type, next.RequestID)
	}
}

// TestTCPCoalescedFetchSurvivesOneWaiterCancel: with two clients
// coalesced onto one cloud fetch, the canceller departs with ctx.Err()
// while the survivor still receives the result from the single shared
// round trip.
func TestTCPCoalescedFetchSurvivesOneWaiterCancel(t *testing.T) {
	p := testParams()
	addr, es, stop := startSlowStack(t, p, 400*time.Millisecond, nil)
	defer stop()

	survivor, err := dialEdge(addr, NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()
	quitter, err := dialEdge(addr, NewClient(1, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer quitter.Close()

	vp := pano.Viewport{Yaw: 0.4, FOV: 1.5}
	survivorErr := make(chan error, 1)
	go func() {
		_, err := survivor.Pano("survivor-video", 9, vp)
		survivorErr <- err
	}()
	waitFor(t, "the leader fetch to start", func() bool { return es.Edge.Inflight().Len() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	quitterErr := make(chan error, 1)
	go func() {
		_, err := quitter.PanoContext(ctx, "survivor-video", 9, vp)
		quitterErr <- err
	}()
	waitFor(t, "the second client to coalesce", func() bool {
		return es.Edge.Inflight().Stats().Coalesced == 1
	})
	cancel()

	if err := <-quitterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("quitter error = %v, want context.Canceled", err)
	}
	if err := <-survivorErr; err != nil {
		t.Fatalf("survivor failed after co-waiter cancelled: %v", err)
	}
	if got := es.CloudFetches(); got != 1 {
		t.Fatalf("cloud fetches = %d, want 1 (one departure must not restart the fetch)", got)
	}
	if st := es.Edge.Inflight().Stats(); st.Canceled != 0 {
		t.Fatalf("inflight stats = %+v: the flight completed, nothing should count as canceled", st)
	}
}

// TestTCPClientDisconnectAbortsInflightFetch: a client that vanishes
// mid-pipeline abandons its in-flight work — the edge cancels the
// request contexts, the sole waiter departs, and the coalesced fetch
// aborts long before the fetch timeout.
func TestTCPClientDisconnectAbortsInflightFetch(t *testing.T) {
	p := testParams()
	cloudAddr, stopCloud := startHungCloud(t)
	defer stopCloud()

	es := &EdgeServer{
		Edge:      NewEdge(p),
		CloudAddr: cloudAddr,
		// Deliberately enormous: only cancellation, not this timeout, can
		// explain a prompt abort below.
		FetchTimeout: 5 * time.Minute,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go es.Serve(ln)

	conn := rawEdgeConn(t, ln.Addr().String(), ModeCoIC)
	if err := wire.WriteMessage(conn, panoFetchMsg(t, 2, "vanish-video", 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the fetch to start", func() bool { return es.Edge.Inflight().Len() == 1 })
	conn.Close() // the user walked away

	deadline := time.Now().Add(10 * time.Second)
	for es.Edge.Inflight().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected client's fetch still in flight — disconnect did not cancel it")
		}
		time.Sleep(time.Millisecond)
	}
	if st := es.Edge.Inflight().Stats(); st.Canceled != 1 {
		t.Fatalf("inflight stats = %+v, want the abandoned flight counted as canceled", st)
	}
}

// TestTCPGracefulShutdownDrains: cancelling the serve context must close
// the listener to new connections but let the admitted in-flight request
// finish and deliver its reply before the connection closes.
func TestTCPGracefulShutdownDrains(t *testing.T) {
	p := testParams()
	cloud := NewCloud(p)
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cloudLn.Close()
	go (&CloudServer{Cloud: cloud}).Serve(cloudLn)

	es := &EdgeServer{
		Edge:      NewEdge(p),
		CloudAddr: cloudLn.Addr().String(),
		WrapCloud: func(c net.Conn) net.Conn { return netsim.NewShaper(c, 0, 300*time.Millisecond) },
	}
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- es.ServeContext(ctx, edgeLn) }()

	cli, err := dialEdge(edgeLn.Addr().String(), NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	vp := pano.Viewport{Yaw: 0.1, FOV: 1.5}
	replyErr := make(chan error, 1)
	go func() {
		_, err := cli.Pano("drain-video", 5, vp)
		replyErr <- err
	}()
	waitFor(t, "the request to be in flight", func() bool { return es.Edge.Inflight().Len() == 1 })
	cancel() // SIGTERM equivalent

	if err := <-replyErr; err != nil {
		t.Fatalf("in-flight request lost during graceful shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("ServeContext = %v, want nil on graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeContext did not return after drain")
	}
	if _, err := net.DialTimeout("tcp", edgeLn.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
