package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
)

// request is one pre-built request: the bytes that go on the wire and the
// result that must come back. Frames are encoded once at set-up because
// the device side (CaptureFrame + Extract, ≈15 + 23 ms a frame) would
// otherwise cap the offered load at ≈25 req/s; at send time only the
// 8-byte request ID in head is patched.
type request struct {
	// head is the wire header followed by the request-specific start of
	// the body; payload, shared between requests and nil for small ones,
	// is the rest of the body. The header's CRC covers both.
	head    []byte
	payload []byte
	// desc is the cache key the request carries; the replay warms its own
	// edge with it.
	desc feature.Descriptor
	// want indexes stream.results.
	want int
}

// stream is a workload's inputs, a pure function of (workload, seed):
// request i of connection c is at(c, i).
type stream struct {
	task      wire.Task
	replyType wire.MsgType
	reqs      []request
	// results[want] is the reference result, computed at set-up by the
	// benchmark's own core.Cloud. A panorama reply must carry exactly
	// these bytes; a recognition reply must name labels[want], the class
	// of the frame it carried (labels is nil for panoramas).
	results [][]byte
	labels  []string
	// warm is how many requests, from the start of the first connection's
	// stretch, the warm-up sends.
	warm int
}

// streams is how many cursors share a stream: the two load connections
// (the first doubles as the solo connection) and the replay.
const streams = 3

// at is request i of cursor c. Cursors start a third of the list apart
// and walk it with different odd strides: every list's length is a power
// of two, so each cursor visits all of it, and no cursor trails another —
// on the churn list, following 400 requests behind a connection that
// plays the same objects in the same order is a run of hits the Zipf
// popularity does not explain.
func (s *stream) at(c, i int) *request {
	return &s.reqs[(c*len(s.reqs)/streams+i*(2*c+1))%len(s.reqs)]
}

// workload names one traffic mix and why it is in the benchmark.
type workload struct {
	name string
	why  string
	// mode is the hello mode byte of every connection.
	mode uint8
	// tune adjusts DefaultParams for both servers; nil keeps them.
	tune func(*core.Params)
	// build makes the inputs. ref is the benchmark's own cloud, the source
	// of reference results.
	build func(p core.Params, seed uint64, ref *core.Cloud) (*stream, error)
}

var workloads = []workload{
	{
		name:  "recognize_hit",
		why:   "2 MB frames that all hit a warm edge: wire read/decode/alloc does most of the work, dnn none",
		mode:  wire.HelloModeCoIC,
		build: buildRecognizeHit,
	},
	{
		name:  "pano_hit",
		why:   "smallest request, 41 KB reply, warm edge: per-message pipeline cost dominates, payload copying barely matters",
		mode:  wire.HelloModeCoIC,
		build: buildPanoHit,
	},
	{
		name:  "recognize_origin",
		why:   "the paper's baseline: every frame forwarded to the cloud DNN, cache bypassed; cache and index changes must not move it",
		mode:  wire.HelloModeOrigin,
		build: buildRecognizeOrigin,
	},
	{
		name:  "recognize_churn",
		why:   "Zipf over 1024 objects against a cache of about 230: index search, insert, evict, coalescing and the miss path together",
		mode:  wire.HelloModeCoIC,
		tune:  func(p *core.Params) { p.EdgeCacheBytes = churnCacheBytes },
		build: buildRecognizeChurn,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Camera frames shared by the three recognition workloads: 8 classes × 2
// viewpoints.
const (
	viewsPerClass = 2
	cameraFrames  = int(vision.NumClasses) * viewsPerClass
)

// camera is one rendered camera frame and what the cloud says about it.
type camera struct {
	class   vision.Class
	frame   *vision.Frame
	payload []byte // the frame's RGBA bytes, the exec payload
	crc     uint32 // of payload
	result  []byte // ref.Recognize(payload)
	// desc is the device-side trunk descriptor, extracted only for the
	// workload that sends it.
	desc feature.Descriptor
	// labelled reports whether the reference classifier names the class.
	labelled bool
}

// capture renders class from the try-th viewpoint of seed's sequence and
// has ref recognise it.
func capture(dev *core.Client, ref *core.Cloud, seed uint64, class vision.Class, try int, extract bool) (camera, error) {
	frame := dev.CaptureFrame(class, seed*1_000_003+uint64(class)*1009+uint64(try))
	cam := camera{class: class, frame: frame, payload: frame.Bytes(), crc: crc32.ChecksumIEEE(frame.Bytes())}
	var err error
	if cam.result, _, err = ref.Recognize(cam.payload); err != nil {
		return cam, err
	}
	rr, err := wire.UnmarshalRecognitionResult(cam.result)
	if err != nil {
		return cam, err
	}
	cam.labelled = rr.Label == class.String()
	if extract {
		cam.desc, _ = dev.Extract(frame)
	}
	return cam, nil
}

// captureFrames renders the camera frames for seed, two viewpoints per
// class. "The reply names the frame's class" must hold on every seed for
// a correct system, so a viewpoint is skipped for the next in the seeded
// sequence when the reference classifier mislabels it or — with extract,
// where the descriptors are the cache keys — when its descriptor is
// within the similarity threshold of another class's frame (the trunk
// puts some car and dog views that close, and the cache would then
// rightly serve one's label for the other).
func captureFrames(p core.Params, seed uint64, ref *core.Cloud, extract bool) ([]camera, error) {
	dev := core.NewClient(0, p)
	cams := make([]camera, cameraFrames)
	err := inParallel(len(cams), func(i int) (err error) {
		cams[i], err = capture(dev, ref, seed, vision.Class(i/viewsPerClass), i%viewsPerClass, extract)
		return err
	})
	if err != nil {
		return nil, err
	}
	usable := func(i int) bool {
		for j := 0; j < i && extract; j++ {
			if cams[j].class != cams[i].class && feature.L2Distance(cams[j].desc.Vec, cams[i].desc.Vec) <= p.Threshold {
				return false
			}
		}
		return cams[i].labelled
	}
	next := viewsPerClass // the first viewpoint not yet tried, the same for every class
	for i := range cams {
		for !usable(i) {
			if next == 64 {
				return nil, fmt.Errorf("seed %d: no usable viewpoint of %v", seed, cams[i].class)
			}
			if cams[i], err = capture(dev, ref, seed, cams[i].class, next, extract); err != nil {
				return nil, err
			}
			next++
		}
	}
	return cams, nil
}

// inParallel runs f(0..n-1) on as many goroutines as there are
// processors and returns the first error: set-up work is independent per
// frame and the servers are not running yet.
func inParallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// execHead encodes the wire header and the body up to the payload of an
// exec request for cam carrying desc. shift must be built for
// len(cam.payload).
func execHead(desc feature.Descriptor, cam *camera, shift *crcShift) ([]byte, error) {
	// An exec body is task | descLen | desc | payloadLen | payload (plus a
	// QoS trailer the benchmark's best-effort requests do not carry), so
	// marshalling with no payload yields everything before it.
	prefix, err := (wire.ExecRequest{Task: wire.TaskRecognize, Desc: desc}).Marshal()
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(prefix[len(prefix)-4:], uint32(len(cam.payload)))
	crc := shift.combine(crc32.ChecksumIEEE(prefix), cam.crc)
	return append(frameHeader(wire.MsgExec, len(prefix)+len(cam.payload), crc), prefix...), nil
}

// frameHeader encodes a wire header with request ID 0 (patched per send).
func frameHeader(t wire.MsgType, bodyLen int, crc uint32) []byte {
	h := make([]byte, wire.HeaderSize, wire.HeaderSize+64)
	binary.LittleEndian.PutUint16(h[0:], wire.Magic)
	h[2] = wire.Version
	h[3] = byte(t)
	binary.LittleEndian.PutUint32(h[12:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(h[16:], crc)
	return h
}

// recognizeStream builds one exec request per camera frame, in a seeded
// order. With extract a request carries its frame's trunk descriptor, as a
// CoIC client's does; without, the placeholder the repo's own clients
// send in Origin mode, where the edge never looks at it.
func recognizeStream(p core.Params, seed uint64, ref *core.Cloud, extract bool) (*stream, error) {
	cams, err := captureFrames(p, seed, ref, extract)
	if err != nil {
		return nil, err
	}
	shift := newCRCShift(len(cams[0].payload))
	order := rand.New(rand.NewSource(int64(seed))).Perm(len(cams))
	// One pass over the stream is the warm-up: it inserts every frame, or
	// in Origin mode, where nothing is cached, dials the upstream link.
	st := &stream{task: wire.TaskRecognize, replyType: wire.MsgExecReply, warm: len(cams),
		reqs: make([]request, len(cams)), results: make([][]byte, len(cams)), labels: make([]string, len(cams))}
	for i, c := range order {
		cam := &cams[c]
		desc := cam.desc
		if !extract {
			desc = feature.NewHash([]byte("origin"))
		}
		head, err := execHead(desc, cam, &shift)
		if err != nil {
			return nil, err
		}
		st.reqs[i] = request{head: head, payload: cam.payload, desc: desc, want: i}
		st.results[i], st.labels[i] = cam.result, cam.class.String()
	}
	return st, nil
}

func buildRecognizeHit(p core.Params, seed uint64, ref *core.Cloud) (*stream, error) {
	return recognizeStream(p, seed, ref, true)
}

func buildRecognizeOrigin(p core.Params, seed uint64, ref *core.Cloud) (*stream, error) {
	return recognizeStream(p, seed, ref, false)
}

// The pano workload plays the first panoFrames frames of one video.
const panoFrames = 64

func buildPanoHit(p core.Params, seed uint64, ref *core.Cloud) (*stream, error) {
	video := fmt.Sprintf("bench-%d", seed)
	order := rand.New(rand.NewSource(int64(seed))).Perm(panoFrames)
	st := &stream{task: wire.TaskPano, replyType: wire.MsgPanoReply, warm: panoFrames,
		reqs: make([]request, panoFrames), results: make([][]byte, panoFrames)}
	err := inParallel(panoFrames, func(i int) error {
		f := order[i]
		body, err := (wire.PanoFetch{VideoID: video, FrameIndex: uint32(f)}).Marshal()
		if err != nil {
			return err
		}
		st.results[i], _, err = ref.FetchPano(video, f)
		head := append(frameHeader(wire.MsgPanoFetch, len(body), crc32.ChecksumIEEE(body)), body...)
		st.reqs[i] = request{head: head, desc: core.PanoDescriptor(video, f), want: i}
		return err
	})
	return st, err
}

// The churn workload: churnObjects synthetic objects requested with Zipf
// popularity against a cache that holds about a quarter of them.
const (
	churnObjects    = 1024
	churnDim        = 64
	churnRequests   = 8192 // pre-drawn, then cycled; stationary because capacity < working set
	churnZipfS      = 1.1
	churnNoise      = 0.04    // L2 norm of the per-request perturbation, inside Threshold (0.12)
	churnCacheBytes = 8 << 10 // ≈230 resident recognition results
	churnWarm       = 1024    // ≈300 distinct objects: fills the cache
)

func buildRecognizeChurn(p core.Params, seed uint64, ref *core.Cloud) (*stream, error) {
	cams, err := captureFrames(p, seed, ref, false)
	if err != nil {
		return nil, err
	}
	shift := newCRCShift(len(cams[0].payload))
	rng := rand.New(rand.NewSource(int64(seed)))
	// Unit Gaussian directions in 64-d are pairwise ≈ √2 apart, so
	// objects never match each other, while two requests for one object
	// are at most 2·churnNoise apart: repeats are similar hits, not exact.
	bases := make([][]float32, churnObjects)
	for k := range bases {
		bases[k] = gaussian(rng, churnDim, 1)
	}
	st := &stream{task: wire.TaskRecognize, replyType: wire.MsgExecReply, warm: churnWarm}
	for i := range cams {
		st.results = append(st.results, cams[i].result)
		st.labels = append(st.labels, cams[i].class.String())
	}
	st.reqs = make([]request, churnRequests)
	for i, k := range zipfSequence(rng) {
		vec := gaussian(rng, churnDim, churnNoise)
		for d := range vec {
			vec[d] += bases[k][d]
		}
		desc := feature.NewVector(vec)
		cam := k % len(cams)
		head, err := execHead(desc, &cams[cam], &shift)
		if err != nil {
			return nil, err
		}
		st.reqs[i] = request{head: head, payload: cams[cam].payload, desc: desc, want: cam}
	}
	return st, nil
}

// zipfSequence returns churnRequests object IDs in which object k occurs
// in proportion to (1+k)^-churnZipfS — the distribution of
// rand.NewZipf(s, v=1) — in an order rng shuffles. Dealing each object
// its exact share, not drawing it, keeps the popularity histogram — and
// with it the cache's hit ratio, which sets this workload's throughput —
// the same on every seed; only the order of requests differs.
func zipfSequence(rng *rand.Rand) []int {
	weights := make([]float64, churnObjects)
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -churnZipfS)
		total += weights[k]
	}
	seq := make([]int, 0, churnRequests)
	// Deal by cumulative share: object k gets the requests whose index
	// falls in its slice of [0, churnRequests).
	var cum float64
	for k, w := range weights {
		cum += w
		for len(seq) < int(math.Round(cum/total*churnRequests)) {
			seq = append(seq, k)
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// gaussian draws a dim-vector of the given L2 norm in a uniformly random
// direction.
func gaussian(rng *rand.Rand, dim int, norm float64) []float32 {
	v := make([]float32, dim)
	var sq float64
	for d := range v {
		x := rng.NormFloat64()
		v[d] = float32(x)
		sq += x * x
	}
	scale := float32(norm / math.Sqrt(sq))
	for d := range v {
		v[d] *= scale
	}
	return v
}
