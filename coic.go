// Package coic is a reproduction of "Immersion on the Edge: A Cooperative
// Framework for Mobile Immersive Computing" (Lai, Cui, Wang, Hu —
// SIGCOMM Posters & Demos 2018): an edge cache for computation-intensive
// Immersive Computing tasks, keyed by feature descriptors so that similar
// or redundant work across applications and users is shared instead of
// recomputed in the cloud.
//
// # Package tour (v2 API)
//
// The package is a context-first facade over the internal implementation.
//
// A System wires mobile clients, an Edge cache and a Cloud over a
// simulated network and executes IC tasks in deterministic virtual time.
// Build one with functional options and drive it through the unified
// task API:
//
//	sys, _ := coic.New(coic.WithClients(2), coic.WithCachePolicy("gdsf"))
//	res, err := sys.Do(ctx, 0, coic.RecognizeTask(coic.ClassStopSign, 42))
//	res, err = sys.Do(ctx, 1, coic.PanoTask("concert", 7, vp).WithDeadline(50*time.Millisecond))
//
// A Request is a tagged union over the three workloads of the paper —
// recognition, 3D-model rendering, VR panorama streaming — with
// per-request Mode (CoIC versus the Origin baseline) and a virtual
// latency Deadline; DoBatch runs a sequence. System.Stats returns one
// coherent SystemStats snapshot (store, logical queries, miss
// coalescing, federation).
//
// The same protocol runs over real TCP. Servers are assembled from
// options, serve on a listener the caller binds, and serve until their
// context dies, then drain gracefully:
//
//	cloudLn, _ := net.Listen("tcp", ":9090")
//	go coic.NewCloudServer(coic.WithListener(cloudLn)).Serve(ctx)
//	edgeLn, _ := net.Listen("tcp", ":9091")
//	err := coic.NewEdgeServer(
//		coic.WithListener(edgeLn),
//		coic.WithCloud("localhost:9090"),
//		coic.WithCloudShape("rate 20mbit delay 10ms"),
//	).Serve(ctx)
//
// Clients are stream-first: NewClient dials a demultiplexed connection
// from DialOptions, and Client.Stream opens a bounded window of
// in-flight requests whose completions arrive out of band and out of
// order:
//
//	cli, _ := coic.NewClient(ctx, "localhost:9091")
//	st, _ := cli.Stream(ctx, coic.WithWindow(8))
//	st.Submit(ctx, coic.PanoTask("coaster", 3, vp).
//		WithQoS(coic.QoSInteractive).WithDeadline(100*time.Millisecond))
//	for comp := range st.Results() { ... }
//
// A Request's QoS class and wall-clock deadline travel on the wire: the
// edge (and, for forwarded misses, the cloud) dispatches queued work
// strictly by class, earliest-deadline-first within a class, and sheds
// a request unexecuted — ErrDeadlineExceeded, no worker, no upstream
// fetch — if its budget expires in the queue. The per-task client
// methods (RecognizeContext / RenderContext / PanoContext) remain as
// one-request conveniences; cancelling a request's context sends a
// cancel frame (see docs/PROTOCOL.md) and the connection stays usable.
// Below the facade, cancellation reaches every layer: a cache miss
// coalesced across N concurrent requests keeps exactly one cloud fetch
// alive, which survives individual departures and aborts — withdrawing
// the upstream round trip — when its last waiter is gone.
//
// This package is the library. The harness that regenerates every figure
// of the paper plus this reproduction's ablations lives in
// internal/experiments and runs as cmd/coic-bench; cmd/ also holds the
// deployable daemons. The v1 entry points are gone; docs/MIGRATION.md
// maps each to its v2 replacement.
package coic

import (
	"fmt"
	"io"
	"net"
	"time"

	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/track"
	"github.com/edge-immersion/coic/internal/vision"
)

// Re-exported types: the public API speaks these names; the internal
// packages own the implementations.
type (
	// Params carries every calibration constant of the reproduction.
	Params = core.Params
	// Breakdown decomposes one request's latency.
	Breakdown = core.Breakdown
	// Mode selects CoIC or the paper's Origin baseline.
	Mode = core.Mode
	// Condition is a (B_M→E, B_E→C) network condition from Figure 2a.
	Condition = netsim.Condition
	// Class is a recognisable object category.
	Class = vision.Class
	// Viewport is a VR viewing direction.
	Viewport = pano.Viewport
	// Outcome classifies a cache lookup (miss / exact / similar).
	Outcome = cache.Outcome
)

// Execution modes.
const (
	ModeOrigin = core.ModeOrigin
	ModeCoIC   = core.ModeCoIC
)

// Object classes recognisable by the reference model.
const (
	ClassStopSign     = vision.ClassStopSign
	ClassCar          = vision.ClassCar
	ClassAvatar       = vision.ClassAvatar
	ClassTree         = vision.ClassTree
	ClassBuilding     = vision.ClassBuilding
	ClassTrafficLight = vision.ClassTrafficLight
	ClassPerson       = vision.ClassPerson
	ClassDog          = vision.ClassDog
)

// On-device tracking (never cached, per the paper: tracking is cheap
// enough to run locally between recognitions).
type (
	// Frame is a raw RGBA camera frame.
	Frame = vision.Frame
	// Tracker follows a template across frames on the device.
	Tracker = track.Tracker
	// Box is a tracked region in pixel coordinates.
	Box = track.Box
)

// NewTracker starts tracking the target box in the first frame.
func NewTracker(first *Frame, target Box, searchRadius int) (*Tracker, error) {
	return track.New(first, target, searchRadius)
}

// CaptureFrame renders what the client's camera sees: an object of the
// given class under a viewSeed-derived viewpoint. AR examples use it to
// drive the recognise-then-track loop.
func (s *System) CaptureFrame(client int, class Class, viewSeed uint64) (*Frame, error) {
	sess, err := s.session(client)
	if err != nil {
		return nil, err
	}
	return sess.Client.CaptureFrame(class, viewSeed), nil
}

// DefaultParams returns the calibrated reproduction parameters
// (each Params field documents how its value was chosen).
func DefaultParams() Params { return core.DefaultParams() }

// Fig2aConditions returns the five network conditions of Figure 2a.
func Fig2aConditions() []Condition { return netsim.Fig2aConditions() }

// AnnotationModelID names the AR overlay model served after recognising
// an object of the given class.
func AnnotationModelID(class Class) string {
	return core.AnnotationModelID(class.String())
}

// SceneModelID names a Figure 2b ladder model by its size in KB (one of
// 231, 1073, 1949, 7050, 13072, 15053).
func SceneModelID(kb int) string { return core.Fig2bModelID(kb) }

// config is what the Options write into; New validates it.
type config struct {
	params      Params
	condition   Condition
	cachePolicy string
	index       string
	clients     int
	privacyK    int
}

// System is an assembled CoIC deployment in virtual time: clients, one
// edge, one cloud, and the network between them.
type System struct {
	Params    Params
	Condition Condition

	cloud    *core.Cloud
	edge     *core.Edge
	topo     *netsim.Topology
	sessions []*core.Session
	now      time.Time
	qos      QoSStats
}

// New assembles a System in virtual time: clients, one edge, one cloud,
// and the network between them. Unconfigured aspects default sensibly
// (calibrated Params, the 200/20 Mbps mid-sweep condition, LRU eviction,
// a linear index, one client).
func New(opts ...Option) (*System, error) {
	var cfg config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	p := cfg.params
	if p.CameraW == 0 { // zero value: caller wants defaults
		p = DefaultParams()
	}
	cond := cfg.condition
	if cond.MobileEdge == 0 {
		cond = core.MidSweep
	}
	var edgeOpts []core.EdgeOption
	switch cfg.cachePolicy {
	case "", "lru":
	case "lfu":
		edgeOpts = append(edgeOpts, core.WithCachePolicy(cache.NewLFU))
	case "fifo":
		edgeOpts = append(edgeOpts, core.WithCachePolicy(cache.NewFIFO))
	case "gdsf":
		edgeOpts = append(edgeOpts, core.WithCachePolicy(cache.NewGDSF))
	default:
		return nil, fmt.Errorf("coic: unknown cache policy %q", cfg.cachePolicy)
	}
	switch cfg.index {
	case "", "linear":
	case "lsh":
		edgeOpts = append(edgeOpts, core.WithCacheIndex(feature.NewLSH(64, 8, 12, p.Seed)))
	default:
		return nil, fmt.Errorf("coic: unknown index %q", cfg.index)
	}
	if cfg.privacyK > 1 {
		edgeOpts = append(edgeOpts, core.WithPrivacyK(cfg.privacyK))
	}

	clients := cfg.clients
	if clients <= 0 {
		clients = 1
	}
	s := &System{
		Params:    p,
		Condition: cond,
		cloud:     core.NewCloud(p),
		edge:      core.NewEdge(p, edgeOpts...),
		topo:      netsim.NewTopology(cond, p.Seed),
		now:       time.Date(2018, 8, 20, 9, 0, 0, 0, time.UTC),
	}
	for i := 0; i < clients; i++ {
		client := core.NewClient(i, p)
		s.sessions = append(s.sessions, core.NewSession(client, s.edge, s.cloud, s.topo))
	}
	return s, nil
}

// Now reports the system's virtual time.
func (s *System) Now() time.Time { return s.now }

// Advance moves virtual time forward (requests issued later see an idle
// network again).
func (s *System) Advance(d time.Duration) { s.now = s.now.Add(d) }

func (s *System) session(client int) (*core.Session, error) {
	if client < 0 || client >= len(s.sessions) {
		return nil, fmt.Errorf("coic: client %d of %d", client, len(s.sessions))
	}
	return s.sessions[client], nil
}

// RecognitionResult is the public form of a recognition answer.
type RecognitionResult struct {
	Label             string
	Confidence        float64
	AnnotationModelID string
}

// SaveCache snapshots the edge cache (all resident IC results with their
// descriptors) so a restarted edge can start warm.
func (s *System) SaveCache(w io.Writer) error { return s.edge.Cache.Snapshot(w) }

// LoadCache restores a snapshot written by SaveCache into the edge cache,
// returning how many entries were adopted (oversized ones are skipped).
func (s *System) LoadCache(r io.Reader) (int, error) { return s.edge.Cache.Restore(r) }

// ShapeSpec is a tc-style link spec ("rate 90mbit delay 5ms"), applied as
// a token-bucket shaper; empty means unshaped.
type ShapeSpec string

func (s ShapeSpec) wrapper() (core.ConnWrapper, error) {
	if s == "" {
		return nil, nil
	}
	cfg, err := netsim.ParseTC(string(s))
	if err != nil {
		return nil, err
	}
	return func(c net.Conn) net.Conn {
		return netsim.NewShaper(c, cfg.BandwidthBPS, cfg.PropDelay)
	}, nil
}
