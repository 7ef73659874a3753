package core

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// These tests pin the ownership of reply bodies on the serving path. A
// panorama or model reply body is packed into a recycled buffer, which
// the reply owns until the connection's writer has written it (or found
// the connection dead) and releases it: exactly once, and nothing reads
// it afterwards. The cache lends its resident bytes to the replies it
// answers, so no reply, probe, snapshot or migration may write them.

// panoParams is testParams with full-width panoramas, whose ≈ 41 KB
// replies are large enough to be packed into recycled buffers.
func panoParams() Params {
	p := testParams()
	p.PanoWidth = DefaultParams().PanoWidth
	return p
}

const replyVideo = "reply-pool"

// panoFrames returns the cloud's encoding of frames 0..n-1 of
// replyVideo: what every reply for them must carry.
func panoFrames(t testing.TB, cloud *Cloud, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n)
	for f := range frames {
		data, _, err := cloud.FetchPano(replyVideo, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 32<<10 {
			t.Fatalf("frame %d encodes to %d bytes, too small to be pooled", f, len(data))
		}
		frames[f] = data
	}
	return frames
}

// wantPano asserts that m is a pano reply carrying exactly data.
func wantPano(t *testing.T, m wire.Message, data []byte) {
	t.Helper()
	if m.Type != wire.MsgPanoReply {
		t.Fatalf("request %d answered %v (%v), want a pano reply", m.RequestID, m.Type, ReplyError(m))
	}
	rep, err := wire.UnmarshalPanoReply(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Data, data) {
		t.Fatalf("request %d: pano reply differs from the cloud's frame (%d vs %d bytes)", m.RequestID, len(rep.Data), len(data))
	}
}

// settle waits until want buffers have been taken and every one of them
// released, then checks the ledger: a reply reaches the client before
// its writer gets to release the body.
func (l *frameLedger) settle(t *testing.T, want int) {
	t.Helper()
	waitFor(t, "every pooled buffer to be released", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.takes >= want && len(l.out) == 0
	})
	l.check(t, want)
}

// gatedWrites fails every Write on a connection, but only once gate is
// closed: the replies queued behind the first one then meet a dead
// connection.
type gatedWrites struct {
	net.Conn
	gate   chan struct{}
	failed chan struct{}
	once   sync.Once
}

func (c *gatedWrites) Write([]byte) (int, error) {
	<-c.gate
	c.once.Do(func() { close(c.failed) })
	return 0, errors.New("connection reset by the test")
}

// TestReplyBodyReleasedOnceOnEveryPath drives every way a pooled reply
// leaves a connection — in order, in completion order, into a dead
// connection and through a graceful shutdown — and asserts that each
// body taken is released exactly once, after the client got it intact:
// released bodies are poisoned, so one released before its write would
// reach the client as garbage.
func TestReplyBodyReleasedOnceOnEveryPath(t *testing.T) {
	p := panoParams()
	cloud := NewCloud(p)
	frames := panoFrames(t, cloud, 3)
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cloudLn.Close() })
	go (&CloudServer{Cloud: cloud}).Serve(cloudLn)

	// stack serves an edge tuned by tune whose cache holds frames 0 and
	// 1 (frame 2 is a miss); stop shuts it down gracefully and waits for
	// every connection to finish. stop may run on its own goroutine, so
	// it reports with t.Error.
	stack := func(t *testing.T, tune func(*EdgeServer)) (es *EdgeServer, addr string, ledger *frameLedger, stop func()) {
		ledger = &frameLedger{poison: true}
		es = &EdgeServer{Edge: NewEdge(p), CloudAddr: cloudLn.Addr().String()}
		for f := range 2 {
			if err := es.Edge.Cache.Insert(PanoDescriptor(replyVideo, f), frames[f], 1); err != nil {
				t.Fatal(err)
			}
		}
		tune(es)
		es.replyBodies = ledger.hooks()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- es.ServeContext(ctx, ln) }()
		stop = func() {
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(20 * time.Second):
				t.Error("the edge did not shut down")
			}
		}
		t.Cleanup(func() { cancel(); ln.Close() })
		return es, ln.Addr().String(), ledger, stop
	}
	fetch := func(reqID uint64, f int) wire.Message { return panoFetchMsg(t, reqID, replyVideo, f) }

	t.Run("ordered", func(t *testing.T) {
		_, addr, ledger, stop := stack(t, func(*EdgeServer) {})
		c := rawEdgeConn(t, addr, ModeCoIC)
		order := []int{0, 1, 2, 0, 2, 1}
		for i, f := range order {
			send(t, c, fetch(uint64(10+i), f))
		}
		c.SetReadDeadline(time.Now().Add(20 * time.Second))
		for i, f := range order {
			m, err := wire.ReadMessage(c)
			if err != nil {
				t.Fatal(err)
			}
			if m.RequestID != uint64(10+i) {
				t.Fatalf("reply %d answers request %d, want %d", i, m.RequestID, 10+i)
			}
			wantPano(t, m, frames[f])
		}
		ledger.settle(t, len(order))
		stop()
		ledger.check(t, len(order))
	})

	t.Run("unordered", func(t *testing.T) {
		_, addr, ledger, stop := stack(t, func(*EdgeServer) {})
		// Two connections miss on frame 2 together: whether or not the
		// second joins the first's flight, each packs its own reply.
		a, b := unorderedEdgeConn(t, addr), unorderedEdgeConn(t, addr)
		send(t, a, fetch(1, 2), fetch(2, 0))
		send(t, b, fetch(3, 2), fetch(4, 1))
		got := readReplies(t, a, 2)
		wantPano(t, got[1], frames[2])
		wantPano(t, got[2], frames[0])
		got = readReplies(t, b, 2)
		wantPano(t, got[3], frames[2])
		wantPano(t, got[4], frames[1])
		ledger.settle(t, 4)
		stop()
		ledger.check(t, 4)
	})

	t.Run("dead connection", func(t *testing.T) {
		var gated *gatedWrites
		_, addr, ledger, stop := stack(t, func(es *EdgeServer) {
			es.WrapClient = func(nc net.Conn) net.Conn {
				gated = &gatedWrites{Conn: nc, gate: make(chan struct{}), failed: make(chan struct{})}
				return gated
			}
		})
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// No hello: the connection is positional, and its first write is
		// the first reply. Every reply is packed before that write fails.
		const n = 4
		for i := range n {
			send(t, nc, fetch(uint64(1+i), i%2))
		}
		waitFor(t, "every reply to be packed", func() bool {
			ledger.mu.Lock()
			defer ledger.mu.Unlock()
			return ledger.takes == n
		})
		close(gated.gate)
		<-gated.failed
		stop()
		ledger.check(t, n)
	})

	t.Run("graceful shutdown drain", func(t *testing.T) {
		es, addr, ledger, stop := stack(t, func(es *EdgeServer) {
			es.WrapCloud = func(c net.Conn) net.Conn { return netsim.NewShaper(c, 0, 150*time.Millisecond) }
		})
		c := unorderedEdgeConn(t, addr)
		send(t, c, fetch(1, 2), fetch(2, 0), fetch(3, 2))
		waitFor(t, "the miss to go upstream", func() bool { return es.Edge.Inflight().Len() == 1 })
		waitFor(t, "every request to be admitted", func() bool { return es.Edge.Stats().Lookups[wire.TaskPano] == 3 })
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			stop()
		}()
		got := readReplies(t, c, 3)
		wantPano(t, got[1], frames[2])
		wantPano(t, got[2], frames[0])
		wantPano(t, got[3], frames[2])
		<-stopped
		ledger.check(t, 3)
	})
}

// TestResidentValuesNeverWritten serves hits of all three task kinds,
// peer probes, a snapshot and a migration drain over real edges whose
// request frames and reply bodies are poisoned on release, and then
// asserts that every resident value still has the checksum it had at
// insert: the cache lends its bytes, and nothing that borrows them
// writes them.
func TestResidentValuesNeverWritten(t *testing.T) {
	p := panoParams()
	frames, replies := &frameLedger{poison: true}, &frameLedger{poison: true}
	onFrame, onReply := frames.hooks(), replies.hooks()
	const rf = 2
	fleet, _ := startGossipFleet(t, p, 3, rf, func(es *EdgeServer) {
		es.frames, es.replyBodies = onFrame, onReply
	})
	edgeAt := map[string]*Edge{}
	var addrs []string
	for _, g := range fleet {
		edgeAt[g.addr] = g.edge
		addrs = append(addrs, g.addr)
	}
	const panos = 4
	model := Fig2bModelID(Fig2bModelKB[0])
	vp := pano.Viewport{FOV: 1.5}
	tasks := func(g *gossipEdge, id int) {
		t.Helper()
		cli, err := dialEdge(g.addr, NewClient(id, p), ModeCoIC, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for f := range panos {
			if _, err := cli.Pano(replyVideo, f, vp); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cli.Render(model); err != nil {
			t.Fatal(err)
		}
		for class := range vision.Class(2) {
			res, _, err := cli.Recognize(class, 3)
			if err != nil {
				t.Fatal(err)
			}
			if want := p.Classes()[class]; res.Label != want {
				t.Fatalf("recognised %q, want %q", res.Label, want)
			}
		}
	}

	// Inserts: misses on edge 0, which keeps a copy of each result and
	// publishes it to the key's ring owners.
	tasks(fleet[0], 1)
	const resident = panos + 3 // the panoramas, one model, two labels
	if n := fleet[0].edge.Cache.StatsSnapshot().Store.Entries; n != resident {
		t.Fatalf("edge 0 holds %d values after the misses, want %d", n, resident)
	}
	sums := map[string]uint32{}
	var descs []feature.Descriptor
	fleet[0].edge.Cache.ForEachResident(func(desc feature.Descriptor, value []byte, _ float64) bool {
		sums[desc.Key()] = crc32.ChecksumIEEE(value)
		descs = append(descs, desc)
		return true
	})
	for f, data := range panoFrames(t, NewCloud(p), panos) {
		if sums[PanoDescriptor(replyVideo, f).Key()] != crc32.ChecksumIEEE(data) {
			t.Fatalf("frame %d was inserted with other bytes than the cloud's", f)
		}
	}
	ring := cache.NewRing(addrs, 0)
	drains := false
	for _, desc := range descs {
		for _, owner := range ring.OwnersFor(desc.Key(), rf) {
			drains = drains || owner == fleet[0].addr
			waitFor(t, "a publish to land on "+owner, func() bool {
				_, res := edgeAt[owner].PeerProbe(-1, desc)
				return res.Hit()
			})
		}
	}

	// Hits on every edge: local ones, and on edges that own too little,
	// federated ones answered by a peer's cache.
	for i, g := range fleet {
		tasks(g, 10+i)
	}

	// Explicit peer probes at edge 1, for everything it holds.
	c := rawEdgeConn(t, fleet[1].addr, ModeCoIC)
	var probes []wire.Message
	fleet[1].edge.Cache.ForEachResident(func(desc feature.Descriptor, _ []byte, _ float64) bool {
		body, err := (wire.PeerLookup{Desc: desc}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, wire.Message{Type: wire.MsgPeerLookup, RequestID: uint64(100 + len(probes)), Body: body})
		return true
	})
	send(t, c, probes...)
	for id, m := range readReplies(t, c, len(probes)) {
		rep, err := wire.UnmarshalPeerReply(m.Body)
		if err != nil || rep.Outcome != wire.ProbeExact || len(rep.Result) == 0 {
			t.Fatalf("peer probe %d: %v %+v %v", id, m.Type, rep, err)
		}
	}

	// A snapshot of each cache, then edge 0's decommission drain.
	for _, g := range fleet {
		var buf bytes.Buffer
		if err := g.edge.Cache.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
	}
	fleet[0].stop(t)
	if drains && fleet[0].srv.MigratedKeys() == 0 {
		t.Fatal("edge 0 co-owned keys but drained none")
	}

	for i, g := range fleet {
		g.edge.Cache.ForEachResident(func(desc feature.Descriptor, value []byte, _ float64) bool {
			want, ok := sums[desc.Key()]
			if !ok {
				t.Errorf("edge %d: key %x was never inserted", i, desc.Key())
			} else if got := crc32.ChecksumIEEE(value); got != want {
				t.Errorf("edge %d: resident value %x changed: crc %08x, %08x at insert", i, desc.Key(), got, want)
			}
			return true
		})
	}
	replies.mu.Lock()
	taken := replies.takes
	replies.mu.Unlock()
	if taken == 0 {
		t.Error("no reply body was pooled: the test exercised nothing")
	}
}

// warmPanoHit returns an edge whose cache holds one full-width panorama
// and a function that serves one request for it the way a connection
// does: EdgeServer dispatch, the reply written (to io.Discard), its body
// released.
func warmPanoHit(t testing.TB) (hit func(), payload int) {
	t.Helper()
	p := panoParams()
	data := panoFrames(t, NewCloud(p), 1)[0]
	es := &EdgeServer{Edge: NewEdge(p)}
	if err := es.Edge.Cache.Insert(PanoDescriptor(replyVideo, 0), data, 1); err != nil {
		t.Fatal(err)
	}
	msg := panoFetchMsg(t, 1, replyVideo, 0)
	ctx := context.Background()
	return func() {
		r := es.dispatch(ctx, msg, ModeCoIC, DefaultTenant)
		if r.msg.Type != wire.MsgPanoReply || r.body == nil {
			t.Fatalf("warm pano hit answered %v (pooled: %v)", r.msg.Type, r.body != nil)
		}
		if err := wire.WriteMessage(io.Discard, r.msg); err != nil {
			t.Fatal(err)
		}
		es.releaseReply(r)
	}, len(data)
}

// TestEdgePanoHitAllocatesNoPayload pins what a warm hit costs the heap:
// the cache lends its bytes, the reply is packed into a recycled buffer
// and written through another, so one ≈ 41 KB panorama hit allocates a
// few small objects (the decoded request, the descriptor key) and
// nothing the size of its payload.
func TestEdgePanoHitAllocatesNoPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers on purpose")
	}
	hit, payload := warmPanoHit(t)
	const runs = 50
	// AllocsPerRun pins GOMAXPROCS to 1, and a change of GOMAXPROCS
	// empties every sync.Pool, so the byte count is taken after it, with
	// the pools warmed again.
	allocs := testing.AllocsPerRun(runs, hit)
	runtime.GC() // the collection the set-up owes must not empty a pool mid-count
	hit()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		hit()
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm %d-byte pano hit: %.0f allocations, %d B", payload, allocs, perHit)
	if perHit >= 4<<10 {
		t.Fatalf("a warm %d-byte pano hit allocates %d B (%.0f allocations), want under 4 KiB", payload, perHit, allocs)
	}
}

// BenchmarkEdgePanoHit is one warm ≈ 41 KB panorama hit on the edge,
// dispatch to written reply, without the socket.
func BenchmarkEdgePanoHit(b *testing.B) {
	hit, payload := warmPanoHit(b)
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		hit()
	}
}
