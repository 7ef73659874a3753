// Command coic-client plays the mobile device against a live edge: it
// streams recognition, render or panorama requests and prints wall-clock
// latency statistics. The -shape flag conditions the client-edge link the
// way the paper's 802.11ac + tc setup does.
//
// Requests flow through the streaming API: up to -window are in flight
// at once and completions arrive out of order. -qos selects the service
// class the edge schedules the stream under, and -deadline attaches a
// per-request motion-to-photon budget — the edge sheds a request
// unexecuted if the budget expires while it queues (those show up as
// "late" below, mirrored by the edge's own shed counter).
//
// Every request travels under a trace ID that each tier logs: pass
// -request-id to pin a known base (request i goes out as base+i), or
// omit it and the stream mints random IDs, printed per completion —
// either way the printed trace=... token is greppable in the edge and
// cloud logs and /debug/requests rings.
//
// -scene switches the client to the collaborative surface: it joins the
// named shared scene and prints every server-pushed update with the
// publishing request's trace ID (the same trace=... token the tiers
// log). With -publish-rate it also writes -n updates into the scene at
// that rate; at 0 it listens until interrupted.
//
// SIGINT/SIGTERM cancels the run: in-flight requests are aborted with
// MsgCancel frames (the edge stops working on them) and the client exits
// after printing the statistics gathered so far.
//
// Usage:
//
//	coic-client -edge localhost:9091 -task recognize -n 20
//	coic-client -edge localhost:9091 -task pano -n 60 -window 8 -qos interactive -deadline 100ms
//	coic-client -edge localhost:9091 -task render -model scene/1073kb -mode origin
//	coic-client -edge localhost:9091 -scene lobby                       # listen
//	coic-client -edge localhost:9091 -scene lobby -publish-rate 5 -n 20 # write too
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	coic "github.com/edge-immersion/coic"
)

func main() {
	edge := flag.String("edge", "localhost:9091", "edge address")
	mode := flag.String("mode", "coic", "coic or origin")
	task := flag.String("task", "recognize", "recognize, render or pano")
	model := flag.String("model", "", "model id for -task render (default: per-class annotations)")
	video := flag.String("video", "demo-video", "video id for -task pano")
	n := flag.Int("n", 10, "number of requests")
	window := flag.Int("window", 4, "requests kept in flight (stream window)")
	qos := flag.String("qos", "besteffort", "service class: besteffort or interactive")
	deadline := flag.Duration("deadline", 0, "per-request wall-clock budget (0 = none); expired queued requests are shed at the edge")
	shape := flag.String("shape", "", `tc-style spec for the client->edge link, e.g. "rate 200mbit delay 1ms"`)
	reqID := flag.String("request-id", "", "base trace ID (decimal or 0x-hex); request i is sent as base+i and shows up under that ID in every tier's logs. Empty: the stream mints random IDs, printed per completion")
	tenant := flag.String("tenant", "", "tenant to authenticate as on the hello handshake (empty = the default tenant)")
	tenantToken := flag.String("tenant-token", "", "shared secret for -tenant, when the edge requires one")
	sceneName := flag.String("scene", "", "join this shared scene instead of streaming -task requests; pushed updates print their trace IDs")
	publishRate := flag.Float64("publish-rate", 0, "updates per second to publish into -scene (-n bounds the count; 0 = listen until interrupted)")
	flag.Parse()

	var traceBase uint64
	if *reqID != "" {
		var err error
		traceBase, err = strconv.ParseUint(*reqID, 0, 64)
		if err != nil || traceBase == 0 {
			log.Fatalf("coic-client: -request-id must be a nonzero decimal or 0x-hex uint64, got %q", *reqID)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	m, class, err := parseRunFlags(*mode, *task, *qos)
	if err != nil {
		log.Fatalf("coic-client: %v", err)
	}

	p := coic.DefaultParams()
	cli, err := coic.NewClient(ctx, *edge,
		coic.WithDialParams(p),
		coic.WithDialMode(m),
		coic.WithDialShape(coic.ShapeSpec(*shape)),
		coic.WithTenant(*tenant, *tenantToken))
	if err != nil {
		log.Fatalf("coic-client: %v", err)
	}
	defer cli.Close()

	if *sceneName != "" {
		runScene(ctx, cli, *sceneName, *publishRate, *n)
		return
	}

	stream, err := cli.Stream(ctx, coic.WithWindow(*window))
	if err != nil {
		log.Fatalf("coic-client: %v", err)
	}
	results := stream.Results()

	classes := []coic.Class{
		coic.ClassStopSign, coic.ClassCar, coic.ClassAvatar, coic.ClassTree,
	}
	buildReq := func(i int) coic.Request {
		var req coic.Request
		switch *task {
		case "recognize":
			req = coic.RecognizeTask(classes[i%len(classes)], uint64(1000+i))
		case "render":
			id := *model
			if id == "" {
				id = coic.AnnotationModelID(classes[i%len(classes)])
			}
			req = coic.RenderTask(id)
		case "pano":
			req = coic.PanoTask(*video, i, coic.Viewport{Yaw: float64(i) * 0.3, FOV: 1.6})
		}
		// The execution mode is connection-level (WithDialMode above);
		// only class, deadline and trace ID ride per-request on a stream.
		req = req.WithQoS(class)
		if *deadline > 0 {
			req = req.WithDeadline(*deadline)
		}
		if traceBase != 0 {
			req = req.WithTraceID(traceBase + uint64(i))
		}
		return req
	}

	// Submit on one goroutine (window backpressure paces it), collect
	// out-of-order completions here.
	submitted := make(chan int, 1)
	go func() {
		sent := 0
		defer func() { submitted <- sent }()
		for i := 0; i < *n; i++ {
			if _, err := stream.Submit(ctx, buildReq(i)); err != nil {
				if ctx.Err() != nil {
					return // interrupted; in-flight requests are cancelled
				}
				log.Fatalf("coic-client: submit %d: %v", i, err)
			}
			sent++
		}
	}()

	var total, min, max time.Duration
	done, late, canceled, shed := 0, 0, 0, 0
	collect := func(comp coic.Completion) {
		// Every completion carries the trace ID the request travelled
		// under (the -request-id passthrough, or the stream-minted one) —
		// grep the edge/cloud logs and /debug/requests rings for it.
		trace := fmt.Sprintf("trace=%016x", comp.TraceID)
		switch {
		case errors.Is(comp.Err, coic.ErrDeadlineExceeded):
			late++
			fmt.Printf("late %-24s %8.1fms %s (budget %v blown)\n", comp.Request, ms(comp.Latency), trace, *deadline)
			return
		case errors.Is(comp.Err, context.Canceled):
			canceled++
			return
		case errors.Is(comp.Err, coic.ErrOverloaded):
			// Admission control rejected it: the run outpaced the edge's
			// workers+queue. Count it and keep measuring — aborting
			// would discard every statistic gathered so far.
			shed++
			fmt.Printf("shed %-24s %s (server overloaded; lower -window or raise edge -workers/-queue)\n", comp.Request, trace)
			return
		case comp.Err != nil:
			log.Fatalf("coic-client: %s: %v", comp.Request, comp.Err)
		}
		src := "cloud"
		if comp.Source == coic.SourceEdge {
			src = "edge"
		}
		if comp.Recognition != nil {
			fmt.Printf("done %-24s -> %-14s conf=%.2f  %8.1fms (%s) %s\n",
				comp.Request, comp.Recognition.Label, comp.Recognition.Confidence, ms(comp.Latency), src, trace)
		} else {
			fmt.Printf("done %-24s %8.1fms (%s) %s\n", comp.Request, ms(comp.Latency), src, trace)
		}
		done++
		total += comp.Latency
		if min == 0 || comp.Latency < min {
			min = comp.Latency
		}
		if comp.Latency > max {
			max = comp.Latency
		}
	}

	outstanding := -1 // unknown until the submitter reports
	received := 0
	for outstanding == -1 || received < outstanding {
		select {
		case sent := <-submitted:
			outstanding = sent
		case comp, ok := <-results:
			if !ok {
				outstanding = received
				break
			}
			collect(comp)
			received++
		}
	}
	if ctx.Err() != nil {
		fmt.Println("coic-client: interrupted; in-flight requests cancelled at the edge")
	}
	stream.Close()

	if done > 0 {
		fmt.Printf("\n%d done / %d late / %d overloaded / %d canceled (%s, %s, qos=%s, window=%d): mean=%.1fms min=%.1fms max=%.1fms\n",
			done, late, shed, canceled, *task, *mode, *qos, *window,
			ms(total/time.Duration(done)), ms(min), ms(max))
	} else {
		fmt.Printf("\n0 done / %d late / %d overloaded / %d canceled\n", late, shed, canceled)
	}
}

// parseRunFlags checks -mode, -task and -qos before anything is dialed,
// so a misspelt value fails instead of silently measuring another arm.
func parseRunFlags(mode, task, qos string) (coic.Mode, coic.QoS, error) {
	var m coic.Mode
	switch mode {
	case "coic":
		m = coic.ModeCoIC
	case "origin":
		m = coic.ModeOrigin
	default:
		return m, 0, fmt.Errorf("unknown -mode %q (coic or origin)", mode)
	}
	switch task {
	case "recognize", "render", "pano":
	default:
		return m, 0, fmt.Errorf("unknown -task %q (recognize, render or pano)", task)
	}
	switch qos {
	case "besteffort":
		return m, coic.QoSBestEffort, nil
	case "interactive":
		return m, coic.QoSInteractive, nil
	}
	return m, 0, fmt.Errorf("unknown -qos %q (besteffort or interactive)", qos)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runScene drives the collaborative surface: join the scene, print every
// pushed update (with its trace ID, like task completions), and — at a
// nonzero rate — publish n timestamped updates of our own. Our writes
// come back as pushes like everyone else's, so the printed stream is the
// converged view every member sees.
func runScene(ctx context.Context, cli *coic.Client, name string, rate float64, n int) {
	sc, err := cli.JoinScene(ctx, name)
	if err != nil {
		log.Fatalf("coic-client: join scene %q: %v", name, err)
	}
	entries, version := sc.Snapshot()
	fmt.Printf("joined scene %q: %d keys at version %d\n", name, len(entries), version)

	events := make(chan struct{})
	go func() {
		defer close(events)
		for ev := range sc.Events() {
			fmt.Printf("push %-24s = %-16q seq=%-6d v=%-6d trace=%016x\n",
				name+"/"+ev.Key, truncate(ev.Value, 16), ev.Seq, ev.Version, ev.TraceID)
		}
	}()

	published := 0
	if rate > 0 {
		tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
		defer tick.Stop()
		for i := 0; i < n && ctx.Err() == nil; i++ {
			val := []byte(time.Now().Format(time.RFC3339Nano))
			if _, err := sc.Publish(ctx, fmt.Sprintf("k%d", i), val); err != nil {
				if ctx.Err() != nil {
					break
				}
				log.Fatalf("coic-client: publish: %v", err)
			}
			published++
			select {
			case <-tick.C:
			case <-ctx.Done():
			}
		}
		// Give our last write's push a beat to land before leaving.
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
		}
	} else {
		<-ctx.Done() // listen-only: run until interrupted
	}

	leaveCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	sc.Leave(leaveCtx)
	<-events
	_, version = sc.Snapshot()
	fmt.Printf("\nleft scene %q: %d published, mirror at version %d\n", name, published, version)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "…"
	}
	return string(b)
}
