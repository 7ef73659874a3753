package coic

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/wire"
)

// This file is the streaming client surface: a real Client type over a
// demultiplexed connection, built by NewClient from DialOptions. The
// per-task methods (RecognizeContext / RenderContext / PanoContext and
// their context-free forms) are one-request windows over that
// connection. Continuous workloads should open a Stream (stream.go)
// instead.

// DialOption configures a Client built by NewClient.
type DialOption func(*dialConfig) error

type dialConfig struct {
	params      Params
	mode        Mode
	shape       ShapeSpec
	clientID    int
	tenant      string
	tenantToken string
}

// WithDialParams overrides the reproduction parameters the client runs
// with (DefaultParams() otherwise). The client's DNN trunk must match the
// serving tier's for descriptors to be comparable.
func WithDialParams(p Params) DialOption {
	return func(c *dialConfig) error { c.params = p; return nil }
}

// WithDialMode selects the execution mode announced at connection time:
// ModeCoIC (default) or the paper's ModeOrigin baseline.
func WithDialMode(m Mode) DialOption {
	return func(c *dialConfig) error { c.mode = m; return nil }
}

// WithDialShape conditions the client→edge link with a tc-style spec
// (the B_M→E knob); empty means unshaped.
func WithDialShape(spec ShapeSpec) DialOption {
	return func(c *dialConfig) error { c.shape = spec; return nil }
}

// WithClientID distinguishes this client in multi-user runs; it seeds
// nothing security-relevant (identity is not authenticated).
func WithClientID(id int) DialOption {
	return func(c *dialConfig) error { c.clientID = id; return nil }
}

// WithTenant authenticates the connection as tenant id with token. The
// claim travels in the versioned hello and the server validates it
// before serving any request: a bad token fails NewClient with the
// server's error. Connections without WithTenant run as the server's
// default tenant, so tenanted and tenantless clients share one edge.
// The token is required only for tenants the server configured with
// one (TenantConfig.Token); pass "" otherwise.
func WithTenant(id, token string) DialOption {
	return func(c *dialConfig) error {
		c.tenant = id
		c.tenantToken = token
		return nil
	}
}

// Client drives requests against a live edge over TCP, measuring
// wall-clock latency (the role of the paper's Pixel phone). The
// connection is demultiplexed: any number of requests may be in flight,
// matched to their replies by request ID, so one Client supports both
// the blocking per-task methods and any number of concurrent Streams.
// Build one with NewClient.
type Client struct {
	// Client is the on-device half: frame capture, descriptor
	// extraction, model loading and drawing, panorama cropping.
	Client *core.Client
	// Mode is the execution mode announced at connection time.
	Mode Mode

	mux *core.MuxClient

	// Open shared-scene memberships, keyed by scene name; lazily built on
	// the first JoinScene, which also installs the push handler (scene.go).
	sceneMu sync.Mutex
	scenes  map[string]*Scene
}

// NewClient connects a mobile client to a running edge. ctx bounds the
// dial and hello exchange only; per-request cancellation is the ctx on
// each method or Submit call.
func NewClient(ctx context.Context, edgeAddr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{params: DefaultParams(), mode: ModeCoIC}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	wrap, err := cfg.shape.wrapper()
	if err != nil {
		return nil, err
	}
	mux, err := core.DialMuxEdge(ctx, edgeAddr, core.NewClient(cfg.clientID, cfg.params), cfg.mode, wrap,
		cfg.tenant, cfg.tenantToken)
	if err != nil {
		return nil, err
	}
	return &Client{Client: mux.Client, Mode: cfg.mode, mux: mux}, nil
}

// Close releases the connection; in-flight requests and open streams
// fail promptly.
func (c *Client) Close() error { return c.mux.Close() }

// ErrOverloaded reports a request rejected by server admission control
// (the connection's worker pool and queue were full of live work). The
// connection stays healthy; retry after backing off.
var ErrOverloaded = errors.New("coic: server overloaded")

// ErrQuotaExceeded reports a request rejected by the connection's
// per-tenant admission quota (TenantConfig.Rate): the tenant's token
// bucket was empty. The connection stays healthy and other tenants are
// unaffected; retry after the bucket refills.
var ErrQuotaExceeded = errors.New("coic: tenant quota exceeded")

// mapRemoteErr converts protocol error codes into the package's typed
// errors so callers can errors.Is against semantics, not numbers.
func mapRemoteErr(err error) error {
	if err == nil {
		return nil
	}
	var re *core.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	switch re.Code {
	case wire.CodeDeadlineExceeded:
		return fmt.Errorf("%w: shed at the edge: %s", ErrDeadlineExceeded, re.Msg)
	case wire.CodeOverloaded:
		return fmt.Errorf("%w: %s", ErrOverloaded, re.Msg)
	case wire.CodeQuotaExceeded:
		return fmt.Errorf("%w: %s", ErrQuotaExceeded, re.Msg)
	case wire.CodeCanceled:
		return fmt.Errorf("request canceled remotely: %s: %w", re.Msg, context.Canceled)
	default:
		return err
	}
}

// do is the one-request window under the per-task methods: on-device
// build, one round trip honouring ctx, on-device finish. It returns the
// recognition result (recognition only) and the measured wall-clock
// latency.
func (c *Client) do(ctx context.Context, t core.Task) (*wire.RecognitionResult, time.Duration, error) {
	start := time.Now()
	msg, err := c.mux.Build(t, wire.QoSBestEffort, time.Time{}, mintTraceID())
	if err != nil {
		return nil, 0, err
	}
	reply, err := c.mux.RoundTrip(ctx, msg)
	if err != nil {
		return nil, 0, mapRemoteErr(err)
	}
	res, _, err := c.mux.Finish(t, reply)
	if err != nil {
		return nil, 0, mapRemoteErr(err)
	}
	return res, time.Since(start), nil
}

// RecognizeContext captures a frame, extracts the descriptor (CoIC
// mode), ships the request and returns the result with measured
// wall-clock latency, honouring ctx for cancellation and deadline.
func (c *Client) RecognizeContext(ctx context.Context, class Class, viewSeed uint64) (wire.RecognitionResult, time.Duration, error) {
	res, lat, err := c.do(ctx, core.RecognizeTask(class, viewSeed))
	if err != nil {
		return wire.RecognitionResult{}, 0, err
	}
	return *res, lat, nil
}

// Recognize is RecognizeContext without cancellation.
func (c *Client) Recognize(class Class, viewSeed uint64) (wire.RecognitionResult, time.Duration, error) {
	return c.RecognizeContext(context.Background(), class, viewSeed)
}

// RenderContext fetches, loads and draws a model, returning measured
// latency, honouring ctx for cancellation and deadline.
func (c *Client) RenderContext(ctx context.Context, modelID string) (time.Duration, error) {
	_, lat, err := c.do(ctx, core.RenderTask(modelID))
	return lat, err
}

// Render is RenderContext without cancellation.
func (c *Client) Render(modelID string) (time.Duration, error) {
	return c.RenderContext(context.Background(), modelID)
}

// PanoContext fetches a panoramic frame and crops the viewport,
// returning measured latency, honouring ctx for cancellation and
// deadline.
func (c *Client) PanoContext(ctx context.Context, videoID string, frameIdx int, vp Viewport) (time.Duration, error) {
	_, lat, err := c.do(ctx, core.PanoTask(videoID, frameIdx, vp))
	return lat, err
}

// Pano is PanoContext without cancellation.
func (c *Client) Pano(videoID string, frameIdx int, vp Viewport) (time.Duration, error) {
	return c.PanoContext(context.Background(), videoID, frameIdx, vp)
}
