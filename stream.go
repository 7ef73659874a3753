package coic

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/wire"
)

// mintTraceID draws a random non-zero trace identifier (zero means "no
// trace" on the wire).
func mintTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// This file is the streaming request surface — the shape of CoIC's real
// workloads. An AR client recognises objects every frame and a VR client
// fetches viewport crops at display rate; a lock-step request/reply API
// leaves the pipelined edge (and the radio) idle between round trips. A
// Stream keeps a bounded window of requests in flight on one connection:
// Submit returns as soon as the frame is on the wire (backpressure only
// when the window is full), completions arrive out of band — via the
// merged Results channel or per-ticket Await — in completion order, and
// every request carries a QoS class and wall-clock deadline that the
// edge's scheduler enforces (strict class priority, EDF within a class,
// expired work shed before it wastes a worker).

// QoS is a request's service class, carried on the wire to the edge and
// cloud schedulers. The public API speaks the wire package's type; the
// class of a zero-valued Request is QoSBestEffort.
type QoS = wire.QoS

// Service classes.
const (
	// QoSBestEffort is background traffic: prefetches, cache warming,
	// analytics. It runs whenever no interactive work is queued.
	QoSBestEffort = wire.QoSBestEffort
	// QoSInteractive is motion-to-photon traffic: every queued
	// interactive request is dispatched before any best-effort one.
	QoSInteractive = wire.QoSInteractive
)

// Result sources, echoed in Completion.Source: which tier supplied the
// result bytes.
const (
	SourceCloud = wire.SourceCloud
	SourceEdge  = wire.SourceEdge
)

// DefaultStreamWindow is the in-flight window of a Stream built without
// WithWindow.
const DefaultStreamWindow = 8

// StreamOption configures a Stream opened by Client.Stream.
type StreamOption func(*streamConfig) error

type streamConfig struct {
	window int
}

// WithWindow bounds how many requests the stream keeps in flight;
// Submit blocks (backpressure) once the window is full and unblocks as
// completions are consumed.
func WithWindow(n int) StreamOption {
	return func(c *streamConfig) error {
		if n <= 0 {
			return fmt.Errorf("coic: stream window must be positive, got %d", n)
		}
		c.window = n
		return nil
	}
}

// Completion is the out-of-band outcome of one submitted request.
type Completion struct {
	// ID is the ticket's request identifier on the connection.
	ID uint64
	// TraceID is the request's cross-tier trace identifier: the one the
	// caller set on the Request, or the one Submit minted for it. Grep the
	// edge and cloud logs for its %016x rendering to follow the request.
	TraceID uint64
	// Request echoes what was submitted.
	Request Request
	// Recognition is set for successful recognition requests.
	Recognition *RecognitionResult
	// Source reports which tier supplied the result bytes (SourceEdge
	// for cache hits and coalesced waiters, SourceCloud for the request
	// that paid the upstream round trip); zero on error.
	Source uint8
	// Latency is wall-clock time from Submit to completion.
	Latency time.Duration
	// Err is nil on success; ErrDeadlineExceeded when the request was
	// shed at the edge or its result landed past the budget (Request
	// data is still populated in the latter case); ErrOverloaded when
	// admission control rejected it; context.Canceled when the ticket
	// was cancelled.
	Err error
}

// Ticket tracks one submitted request. Its completion is delivered both
// here (Await) and on the stream's Results channel, if enabled.
type Ticket struct {
	id        uint64
	req       Request
	task      core.Task // req, as the connection was asked for it
	s         *Stream
	submitted time.Time
	deadline  time.Time
	done      chan struct{}
	comp      Completion
}

// ID is the request identifier on the connection (useful in logs).
func (t *Ticket) ID() uint64 { return t.id }

// Await blocks until the ticket completes, returning its Completion and
// the completion's Err. ctx bounds only the wait: an expired ctx leaves
// the request in flight (use Cancel to abort it).
func (t *Ticket) Await(ctx context.Context) (Completion, error) {
	select {
	case <-t.done:
		return t.comp, t.comp.Err
	case <-ctx.Done():
		return Completion{}, ctx.Err()
	}
}

// Cancel asks the edge to abort this request; other tickets on the
// stream are untouched. The ticket still completes — with
// context.Canceled if the cancel landed in time, or its result if it
// lost the race.
func (t *Ticket) Cancel() {
	t.s.c.mux.SendCancel(t.id)
}

// Stream is a window of in-flight requests on a Client's connection.
// Open one per logical flow (one per camera, one per viewport); streams
// on the same Client share the connection and therefore the edge's
// per-connection scheduler, which is what lets an interactive stream
// pre-empt a best-effort one.
type Stream struct {
	c      *Client
	ctx    context.Context
	window chan struct{}

	results   chan Completion
	resultsOn atomic.Bool
	closing   chan struct{}

	mu      sync.Mutex
	closed  bool
	pending map[uint64]*Ticket
	wg      sync.WaitGroup
}

// Stream opens a streaming window on the client's connection. ctx bounds
// the stream's lifetime: when it dies, every in-flight ticket is
// cancelled (the edge stops working on them) and further Submits fail.
func (c *Client) Stream(ctx context.Context, opts ...StreamOption) (*Stream, error) {
	cfg := streamConfig{window: DefaultStreamWindow}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	s := &Stream{
		c:       c,
		ctx:     ctx,
		window:  make(chan struct{}, cfg.window),
		results: make(chan Completion, cfg.window),
		closing: make(chan struct{}),
		pending: map[uint64]*Ticket{},
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				// Abort everything in flight; completions flow normally
				// (context.Canceled) as the edge answers the cancels.
				s.mu.Lock()
				tickets := make([]*Ticket, 0, len(s.pending))
				for _, t := range s.pending {
					tickets = append(tickets, t)
				}
				s.mu.Unlock()
				for _, t := range tickets {
					t.Cancel()
				}
			case <-s.closing:
			}
		}()
	}
	return s, nil
}

// Submit ships one request without waiting for its reply, as long as
// fewer than the window are in flight; beyond that it blocks until a
// completion frees a slot (or ctx / the stream's ctx dies). The
// request's Deadline (if set) becomes an absolute wall-clock deadline
// from now, encoded on the wire: the edge sheds the request unexecuted
// if it expires in the queue, and a result landing after it completes
// with ErrDeadlineExceeded. On-device work (frame capture, descriptor
// extraction) runs synchronously on the caller, as it would on the
// phone's camera thread.
//
// The execution mode (CoIC vs Origin) is a connection-level property on
// the TCP path, announced at dial time (WithDialMode): req.Mode is
// ignored here. Dial a second Client to compare against the Origin
// baseline.
func (s *Stream) Submit(ctx context.Context, req Request) (*Ticket, error) {
	task, err := req.task()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("coic: stream closed")
	}
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}

	submitted := time.Now()
	var deadline time.Time
	if req.Deadline > 0 {
		deadline = submitted.Add(req.Deadline)
	}
	if req.TraceID == 0 {
		// Mint the cross-tier correlation ID here, where the request's
		// life begins; every tier it crosses logs the same value.
		req.TraceID = mintTraceID()
	}
	msg, err := s.c.mux.Build(task, req.QoS, deadline, req.TraceID)
	if err != nil {
		return nil, err
	}

	select {
	case s.window <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ctx.Done():
		return nil, s.ctx.Err()
	}

	id, ch, err := s.c.mux.Start(msg)
	if err != nil {
		<-s.window
		return nil, err
	}
	t := &Ticket{id: id, req: req, task: task, s: s, submitted: submitted, deadline: deadline, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		// Lost the race with Close: the frame is on the wire but nobody
		// will await it. Withdraw interest and abort it server-side.
		s.mu.Unlock()
		s.c.mux.Forget(id)
		s.c.mux.SendCancel(id)
		<-s.window
		return nil, fmt.Errorf("coic: stream closed")
	}
	s.pending[id] = t
	s.wg.Add(1) // under mu: Close marks closed before it calls wg.Wait
	s.mu.Unlock()
	go s.await(t, ch)
	return t, nil
}

// await completes one ticket: decode the reply, run the client-side half
// of the task, stamp latency and deliver.
func (s *Stream) await(t *Ticket, ch <-chan wire.Message) {
	defer s.wg.Done()
	comp := Completion{ID: t.id, TraceID: t.req.TraceID, Request: t.req}
	reply, ok := <-ch
	if !ok {
		comp.Err = fmt.Errorf("coic: connection closed with request in flight")
	} else {
		res, src, err := s.c.mux.Finish(t.task, reply)
		comp.Recognition, comp.Source, comp.Err = recognitionOf(res), src, mapRemoteErr(err)
	}
	comp.Latency = time.Since(t.submitted)
	if comp.Err == nil && !t.deadline.IsZero() && time.Now().After(t.deadline) {
		// The work completed but the budget is blown: for a
		// motion-to-photon client this frame is a miss even though the
		// bytes exist. The result fields stay populated.
		comp.Err = fmt.Errorf("%w: completed %v late", ErrDeadlineExceeded, comp.Latency-t.req.Deadline)
	}
	s.deliver(t, comp)
}

func (s *Stream) deliver(t *Ticket, comp Completion) {
	t.comp = comp
	close(t.done)
	s.mu.Lock()
	delete(s.pending, t.id)
	s.mu.Unlock()
	if s.resultsOn.Load() {
		select {
		case s.results <- comp:
		case <-s.closing:
			// Closing raced this delivery. A consumer draining Results
			// through Close should still see it, so park it in the
			// buffer if there is room; only a full buffer (nobody
			// draining) drops it.
			select {
			case s.results <- comp:
			default:
			}
		}
	}
	<-s.window
}

// Results returns the merged completion channel: every completion after
// this call is delivered there, in completion order (out of order with
// respect to submission — that is the point). Call it before submitting;
// completions that finished before the first call are not replayed (use
// Await for those). The channel closes when the stream is closed. Note
// that a completion is visible both here and on its ticket's Await.
func (s *Stream) Results() <-chan Completion {
	s.resultsOn.Store(true)
	return s.results
}

// InFlight reports how many submitted requests have not completed.
func (s *Stream) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close stops admission, waits for in-flight tickets to complete (their
// Await results remain readable) and closes the Results channel.
// Completions that nobody consumed from Results are dropped at close;
// drain Results (or Await every ticket) first.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.closing)
	s.wg.Wait()
	close(s.results)
	return nil
}
