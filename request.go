package coic

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/wire"
)

// This file is the v2 task API: one context-first entry point for every
// IC workload. A Request is a tagged union over the three task kinds with
// per-request Mode and Deadline; System.Do executes one, System.DoBatch a
// sequence.

// RecognizeSpec is the recognition variant of a Request: observe an
// object of Class from a viewpoint derived from ViewSeed and resolve its
// label through the CoIC protocol.
type RecognizeSpec struct {
	Class    Class
	ViewSeed uint64
}

// RenderSpec is the 3D-model load-and-draw variant of a Request.
type RenderSpec struct {
	ModelID string
}

// PanoSpec is the VR panorama fetch-and-crop variant of a Request.
type PanoSpec struct {
	VideoID  string
	Frame    int
	Viewport Viewport
}

// Request is one IC task: a tagged union — exactly one of Recognize,
// Render and Pano set — plus per-request execution knobs. Construct
// requests with RecognizeTask / RenderTask / PanoTask (which default Mode
// to ModeCoIC) or as struct literals (where the zero Mode is ModeOrigin,
// matching the wire encoding — set it explicitly).
type Request struct {
	Recognize *RecognizeSpec
	Render    *RenderSpec
	Pano      *PanoSpec

	// Mode selects the CoIC protocol or the paper's Origin baseline for
	// this request only. It applies to System.Do (virtual time); on the
	// TCP path the mode is a connection-level property announced at dial
	// time (WithDialMode), and Stream.Submit ignores this field.
	Mode Mode
	// Deadline, when positive, bounds the request's acceptable latency.
	// In virtual time (System.Do): if the computed end-to-end latency
	// exceeds it, Do returns ErrDeadlineExceeded alongside the
	// (complete) Result — the answer arrived too late for a
	// motion-to-photon budget, which for an immersive client is a miss
	// even though the bytes exist; virtual time still advances. On a
	// Stream (wall clock): the budget starts at Submit, is encoded on
	// the wire as an absolute deadline, and the edge sheds the request
	// unexecuted if it expires while queued.
	Deadline time.Duration
	// QoS is the request's service class. On the TCP path the edge and
	// cloud schedulers dispatch strictly by class (interactive before
	// best-effort), earliest-deadline-first within a class. The virtual
	// System has no queue to schedule — there QoS is carried for
	// accounting only (SystemStats.QoS).
	QoS QoS
	// TraceID, when non-zero, identifies this request in every tier's
	// structured logs (client, edge, cloud) for cross-tier correlation of
	// slow frames. Stream.Submit mints a random ID when it is zero; set it
	// explicitly to correlate with an external system. Virtual-time
	// System.Do ignores it (there is nothing to correlate across).
	TraceID uint64
}

// RecognizeTask builds a CoIC-mode recognition request.
func RecognizeTask(class Class, viewSeed uint64) Request {
	return Request{Recognize: &RecognizeSpec{Class: class, ViewSeed: viewSeed}, Mode: ModeCoIC}
}

// RenderTask builds a CoIC-mode 3D-model request.
func RenderTask(modelID string) Request {
	return Request{Render: &RenderSpec{ModelID: modelID}, Mode: ModeCoIC}
}

// PanoTask builds a CoIC-mode VR panorama request.
func PanoTask(videoID string, frame int, vp Viewport) Request {
	return Request{Pano: &PanoSpec{VideoID: videoID, Frame: frame, Viewport: vp}, Mode: ModeCoIC}
}

// WithMode returns a copy of the request running in the given mode.
func (r Request) WithMode(m Mode) Request { r.Mode = m; return r }

// WithDeadline returns a copy of the request with a latency budget
// (virtual for System.Do, wall clock from Submit for streams).
func (r Request) WithDeadline(d time.Duration) Request { r.Deadline = d; return r }

// WithQoS returns a copy of the request in the given service class.
func (r Request) WithQoS(q QoS) Request { r.QoS = q; return r }

// WithTraceID returns a copy of the request carrying the given trace ID
// on the wire (see Request.TraceID).
func (r Request) WithTraceID(id uint64) Request { r.TraceID = id; return r }

// Validate reports whether the request names exactly one task.
func (r Request) Validate() error {
	_, err := r.task()
	return err
}

// task converts the one variant the request names into the task the
// layers below execute — the only place the union is taken apart.
func (r Request) task() (core.Task, error) {
	var t core.Task
	n := 0
	if r.Recognize != nil {
		t = core.RecognizeTask(r.Recognize.Class, r.Recognize.ViewSeed)
		n++
	}
	if r.Render != nil {
		t = core.RenderTask(r.Render.ModelID)
		n++
	}
	if r.Pano != nil {
		t = core.PanoTask(r.Pano.VideoID, r.Pano.Frame, r.Pano.Viewport)
		n++
	}
	if n != 1 {
		return core.Task{}, fmt.Errorf("coic: request must name exactly one task, has %d", n)
	}
	return t, nil
}

// String names the request's task kind for logs.
func (r Request) String() string {
	switch {
	case r.Recognize != nil:
		return fmt.Sprintf("recognize(%s)", r.Recognize.Class)
	case r.Render != nil:
		return fmt.Sprintf("render(%s)", r.Render.ModelID)
	case r.Pano != nil:
		return fmt.Sprintf("pano(%s#%d)", r.Pano.VideoID, r.Pano.Frame)
	default:
		return "request(empty)"
	}
}

// ErrDeadlineExceeded reports a result that arrived after its Request's
// virtual latency budget. The accompanying Result is still complete.
var ErrDeadlineExceeded = errors.New("coic: request exceeded its deadline")

// recognitionOf is the public form of a decoded recognition result (nil
// for the task kinds that produce none).
func recognitionOf(rr *wire.RecognitionResult) *RecognitionResult {
	if rr == nil {
		return nil
	}
	return &RecognitionResult{
		Label:             rr.Label,
		Confidence:        float64(rr.Confidence),
		AnnotationModelID: rr.AnnotationModelID,
	}
}

// Result is the outcome of one Request.
type Result struct {
	// Breakdown decomposes the request's virtual latency.
	Breakdown Breakdown
	// Recognition is set for recognition requests only.
	Recognition *RecognitionResult
}

// Do executes one request for the given client, advancing the system's
// virtual clock to the request's completion. ctx carries wall-clock
// cancellation: an already-expired context returns promptly — before any
// cloud work — and a context that dies mid-request abandons it at the
// next stage boundary. req.Deadline additionally bounds the *virtual*
// latency; see Request.Deadline.
func (s *System) Do(ctx context.Context, client int, req Request) (Result, error) {
	task, err := req.task()
	if err != nil {
		return Result{}, err
	}
	sess, err := s.session(client)
	if err != nil {
		return Result{}, err
	}
	b, rr, err := sess.Do(ctx, s.now, task, req.Mode)
	if err != nil {
		return Result{Breakdown: b}, err
	}
	res := Result{Breakdown: b, Recognition: recognitionOf(rr)}
	s.now = res.Breakdown.End
	if req.QoS == QoSInteractive {
		s.qos.Interactive++
	} else {
		s.qos.BestEffort++
	}
	if req.Deadline > 0 && res.Breakdown.Total() > req.Deadline {
		s.qos.DeadlineMisses++
		return res, fmt.Errorf("%w: %v > %v", ErrDeadlineExceeded, res.Breakdown.Total(), req.Deadline)
	}
	return res, nil
}

// DoBatch executes requests in order for the given client, stopping at
// the first failure (including ctx expiry and per-request deadline
// misses). It returns one Result per completed request; on error the
// slice holds the results up to and including the failing request's
// partial result.
func (s *System) DoBatch(ctx context.Context, client int, reqs []Request) ([]Result, error) {
	results := make([]Result, 0, len(reqs))
	for i, req := range reqs {
		res, err := s.Do(ctx, client, req)
		if err != nil {
			results = append(results, res)
			return results, fmt.Errorf("coic: batch request %d (%s): %w", i, req, err)
		}
		results = append(results, res)
	}
	return results, nil
}
