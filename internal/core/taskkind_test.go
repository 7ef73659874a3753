package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/trace"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// exampleTasks holds one task per kind for the table tests below; a new
// taskKinds row needs one more entry here and nothing else.
var exampleTasks = []Task{
	RecognizeTask(vision.ClassCar, 7),
	RenderTask(AnnotationModelID("dog")),
	PanoTask("walk-video", 3, pano.Viewport{Yaw: 0.3, FOV: 1.5}),
}

// TestTaskKindsTableWalk carries one task through every function of every
// taskKinds row in the order the tiers call them — build on the device,
// key at the edge, compute at the cloud, pack/unpack on the way back,
// finish on the device — and then feeds each decoder a malformed body.
func TestTaskKindsTableWalk(t *testing.T) {
	p := testParams()
	cloud, client := NewCloud(p), NewClient(0, p)
	tr := trailer{qos: wire.QoSInteractive, deadline: 1_534_755_600_000_000, trace: 0xC01C}
	for i := range taskKinds {
		k := kindOf(wire.MsgType(i))
		if k == nil {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			if k.request != wire.MsgType(i) {
				t.Fatalf("row %d says its request frame is %v", i, k.request)
			}
			var task Task
			for _, ex := range exampleTasks {
				if row, err := kindOfTask(ex.Kind); err == nil && row == k {
					task = ex
				}
			}
			if task.Kind == 0 {
				t.Fatalf("no exampleTasks entry reaches row %q", k.name)
			}

			body, desc, _, err := k.build(client, ModeCoIC, task, tr)
			if err != nil {
				t.Fatal(err)
			}
			if class, deadline := wire.PeekQoS(k.request, body); class != tr.qos || deadline != tr.deadline {
				t.Errorf("trailer on the wire = (%v, %d), want (%v, %d)", class, deadline, tr.qos, tr.deadline)
			}
			if trace := wire.PeekTrace(k.request, body); trace != tr.trace {
				t.Errorf("trace on the wire = %#x, want %#x", trace, tr.trace)
			}

			keyTask, keyDesc, err := k.key(body)
			if err != nil {
				t.Fatal(err)
			}
			if keyTask != task.Kind || keyDesc.Key() != desc.Key() {
				t.Errorf("key = (%v, %x), build said (%v, %x)", keyTask, keyDesc.Key(), task.Kind, desc.Key())
			}

			payload, cost, _, err := k.compute(cloud, nil, body)
			if err != nil {
				t.Fatal(err)
			}
			if len(payload) == 0 || cost <= 0 {
				t.Errorf("compute = %d bytes at cost %v", len(payload), cost)
			}

			reply := k.replyWith(9, wire.SourceEdge, payload)
			if reply.Type != k.reply || reply.RequestID != 9 {
				t.Errorf("reply frame = %v #%d, want %v #9", reply.Type, reply.RequestID, k.reply)
			}
			if got := k.replySize(payload); got != reply.WireSize() {
				t.Errorf("replySize = %d, the reply is %d bytes on the wire", got, reply.WireSize())
			}
			got, source, err := k.unpack(reply.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) || source != wire.SourceEdge {
				t.Errorf("unpack = %d bytes from source %d, packed %d bytes from source %d", len(got), source, len(payload), wire.SourceEdge)
			}

			res, _, err := k.finish(client, task, got)
			if err != nil {
				t.Fatal(err)
			}
			if (res != nil) != (task.Kind == wire.TaskRecognize) {
				t.Errorf("finish returned recognition result %+v for a %v task", res, task.Kind)
			}
			if res != nil && res.Label != task.Class.String() {
				t.Errorf("recognised %q, the camera saw %q", res.Label, task.Class)
			}

			// body[:3] ends inside the first field of every request body.
			for _, bad := range [][]byte{nil, {0xFF}, body[:3]} {
				if _, _, err := k.key(bad); err == nil {
					t.Errorf("key accepted a malformed %d-byte body", len(bad))
				}
				if _, _, code, err := k.compute(cloud, nil, bad); err == nil || code != wire.CodeBadRequest {
					t.Errorf("compute on a malformed %d-byte body = code %d, %v; want CodeBadRequest", len(bad), code, err)
				}
				if _, _, err := k.unpack(bad); err == nil && len(bad) > 0 {
					t.Errorf("unpack accepted a malformed %d-byte body", len(bad))
				}
			}
			if _, _, err := k.finish(client, task, payload[:len(payload)/2]); err == nil {
				t.Error("finish accepted half a payload")
			}
		})
	}
}

// TestTaskUnknownKindIsAnError: a Task no row carries fails on the device,
// in virtual time and over TCP alike.
func TestTaskUnknownKindIsAnError(t *testing.T) {
	if _, _, err := new(Session).Do(context.Background(), epoch, Task{Kind: 99}, ModeCoIC); err == nil {
		t.Error("Session.Do ran a task of unknown kind")
	}
	if _, err := new(MuxClient).Build(Task{}, wire.QoSBestEffort, time.Time{}, 0); err == nil {
		t.Error("MuxClient.Build framed a task of unknown kind")
	}
}

// TestTCPAgreesWithVirtualTime runs the same tasks, each twice, through
// Session.Do and through a MuxClient against a loopback cloud + edge:
// both executions of the one taskKinds table must recognise the same
// label and see the same miss-then-hit sequence (a virtual miss is a
// payload the cloud supplied, a virtual hit one the edge supplied).
func TestTCPAgreesWithVirtualTime(t *testing.T) {
	p := testParams()
	sess := NewSession(NewClient(0, p), NewEdge(p), NewCloud(p), netsim.NewTopology(testCond, p.Seed))
	addr, _, stop := startStack(t, p)
	defer stop()
	cli, err := dialEdge(addr, NewClient(0, p), ModeCoIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	at := epoch
	for _, task := range exampleTasks {
		for nth, want := range []struct {
			hit    bool
			source uint8
		}{{false, wire.SourceCloud}, {true, wire.SourceEdge}} {
			at = at.Add(time.Minute)
			b, virtual, err := sess.Do(context.Background(), at, task, ModeCoIC)
			if err != nil {
				t.Fatalf("%v #%d in virtual time: %v", task.Kind, nth, err)
			}
			msg, err := cli.Build(task, wire.QoSBestEffort, time.Time{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := cli.RoundTrip(context.Background(), msg)
			if err != nil {
				t.Fatalf("%v #%d over TCP: %v", task.Kind, nth, err)
			}
			overTCP, source, err := cli.Finish(task, reply)
			if err != nil {
				t.Fatalf("%v #%d over TCP: %v", task.Kind, nth, err)
			}
			if hit := b.Outcome != cache.OutcomeMiss; hit != want.hit || source != want.source {
				t.Errorf("%v #%d: virtual outcome %v, TCP source %d; want hit=%v from source %d",
					task.Kind, nth, b.Outcome, source, want.hit, want.source)
			}
			if (virtual == nil) != (overTCP == nil) || (virtual != nil && *virtual != *overTCP) {
				t.Errorf("%v #%d: virtual time recognised %+v, TCP %+v", task.Kind, nth, virtual, overTCP)
			}
		}
	}
}

// TestTCPAgreesWithVirtualTimeOnATrace replays one seeded multi-user
// trace — all three task kinds, against a cache small enough to evict —
// serially through Session.Do and through one MuxClient per user against
// a loopback cloud + edge. Request by request, a virtual hit must be a
// TCP reply the edge supplied and recognition must agree; at the end the
// two caches must hold the same entries and bytes after the same number
// of evictions.
func TestTCPAgreesWithVirtualTimeOnATrace(t *testing.T) {
	p := testParams()
	p.EdgeCacheBytes = 1 << 20
	events, err := trace.Generate(trace.Config{
		Users: 3, Cells: 2, Duration: 12 * time.Second, RatePerUser: 1,
		Objects: 24, ZipfAlpha: 0.8, Locality: 0.7, HotSetSize: 6,
		TaskMix: trace.TaskMix{Recognize: 1, Render: 1, Pano: 1},
		Seed:    p.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	edge, cloud := NewEdge(p), NewCloud(p)
	topo := netsim.NewTopology(testCond, p.Seed)
	addr, tcpEdge, stop := startStack(t, p)
	defer stop()
	sessions := map[int]*Session{}
	clients := map[int]*taskClient{}
	trunk := NewClient(0, p).Trunk // every user's device runs the same weights
	for _, ev := range events {
		if sessions[ev.User] != nil {
			continue
		}
		client := &Client{ID: ev.User, Params: p, Trunk: trunk}
		sessions[ev.User] = NewSession(client, edge, cloud, topo)
		cli, err := dialEdge(addr, client, ModeCoIC, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		clients[ev.User] = cli
	}

	renderModels := cloud.AnnotationModelIDs()
	misses := 0
	for i, ev := range events {
		task := eventTask(ev, renderModels)
		b, virtual, err := sessions[ev.User].Do(context.Background(), epoch.Add(ev.At), task, ModeCoIC)
		if err != nil {
			t.Fatalf("event %d (%v) in virtual time: %v", i, task.Kind, err)
		}
		msg, err := clients[ev.User].Build(task, wire.QoSBestEffort, time.Time{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := clients[ev.User].RoundTrip(context.Background(), msg)
		if err != nil {
			t.Fatalf("event %d (%v) over TCP: %v", i, task.Kind, err)
		}
		overTCP, source, err := clients[ev.User].Finish(task, reply)
		if err != nil {
			t.Fatalf("event %d (%v) over TCP: %v", i, task.Kind, err)
		}
		if hit := b.Outcome != cache.OutcomeMiss; hit != (source == wire.SourceEdge) {
			t.Errorf("event %d (%v, user %d): virtual outcome %v, TCP source %d", i, task.Kind, ev.User, b.Outcome, source)
		}
		if b.Outcome == cache.OutcomeMiss {
			misses++
		}
		if (virtual == nil) != (overTCP == nil) || (virtual != nil && virtual.Label != overTCP.Label) {
			t.Errorf("event %d: virtual time recognised %+v, TCP %+v", i, virtual, overTCP)
		}
	}

	vst := edge.Cache.StatsSnapshot().Store
	tst := tcpEdge.Cache.StatsSnapshot().Store
	t.Logf("%d events, %d misses, %d evictions", len(events), misses, vst.Evictions)
	if vst.Evictions == 0 || misses == 0 || misses == len(events) {
		t.Fatalf("trace too easy: %d events, %d misses, %d evictions", len(events), misses, vst.Evictions)
	}
	if vst.Entries != tst.Entries || vst.BytesUsed != tst.BytesUsed || vst.Evictions != tst.Evictions {
		t.Errorf("caches diverged: virtual %d entries / %d B / %d evictions, TCP %d / %d B / %d",
			vst.Entries, vst.BytesUsed, vst.Evictions, tst.Entries, tst.BytesUsed, tst.Evictions)
	}
}
