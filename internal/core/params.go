// Package core implements CoIC itself: the cooperative mobile-edge-cloud
// framework of the paper. A Client extracts feature descriptors and issues
// IC requests; an Edge answers them from its similarity cache or forwards
// to the Cloud, inserting results on the way back (Figure 1 of the paper);
// an Origin mode bypasses the cache entirely (the paper's baseline). The
// Session type composes these nodes over simulated links in virtual time,
// and the experiment runners regenerate every figure.
package core

import (
	"time"

	"github.com/edge-immersion/coic/internal/vision"
)

// Params carries every calibration constant in one place. The paper's
// testbed (Pixel phone, two Linux machines, 802.11ac, an unnamed DNN) is
// not available, so absolute speeds are modelled; every value below is a
// named knob rather than a magic number in a pipeline, and its comment
// says how the value was chosen.
type Params struct {
	// --- recognition task -------------------------------------------

	// CameraW/CameraH size the captured camera frame; the upload payload
	// is W·H·4 bytes of raw RGBA (720×720 ≈ 2.07 MB, producing the ~2.4s
	// origin latency of Figure 2a's most constrained condition).
	CameraW, CameraH int
	// DNNInput is the square side the frame is resized to before feature
	// extraction / classification.
	DNNInput int
	// Seed makes the whole system (weights, scenes, workloads)
	// reproducible.
	Seed uint64
	// FLOPsScale relates the in-repo EdgeNet to the production-size DNN
	// it stands in for: virtual compute time charges
	// FLOPs·FLOPsScale/deviceFLOPS. EdgeNet is ~22 MFLOP; a scale of
	// 220 models a ~5 GFLOP production recogniser.
	FLOPsScale float64
	// MobileGFLOPS is the phone's effective DNN throughput. 7 GFLOPS
	// effective puts descriptor extraction at ~700 ms — a 2017-class
	// phone CPU running a large CNN.
	MobileGFLOPS float64
	// CloudGFLOPS is the cloud server's effective DNN throughput (the
	// paper's cloud is a plain Linux machine, not a GPU box; 14.2
	// effective GFLOPS puts full-model inference at ~350 ms).
	CloudGFLOPS float64

	// --- edge ---------------------------------------------------------

	// EdgeLookupTime is the per-request cache query cost (descriptor
	// match + store fetch).
	EdgeLookupTime time.Duration
	// EdgeInsertTime is the cache insertion cost on the miss path.
	EdgeInsertTime time.Duration
	// EdgeCacheBytes is the IC-cache capacity.
	EdgeCacheBytes int64
	// Threshold is the maximum L2 distance between unit-norm feature
	// vectors treated as "the same computation" (paper §2). Calibrated
	// by the A-threshold ablation.
	Threshold float64

	// --- rendering task ----------------------------------------------

	// CloudOBJXParseBps is the cloud's model-load rate: parsing the OBJX
	// source into the runtime CMF form, charged per OBJX byte.
	CloudOBJXParseBps float64
	// ClientCMFLoadBps is the client's model-load rate: deserialising
	// CMF into memory, charged per CMF byte (~15 MB/s puts the 15 MB
	// model at ~1 s, landing Figure 2b's ~76% max reduction).
	ClientCMFLoadBps float64
	// ClientDrawTime is the fixed cost of drawing a loaded model once.
	ClientDrawTime time.Duration

	// --- panorama task -------------------------------------------------

	// PanoWidth is the equirect frame width (height = width/2).
	PanoWidth int
	// CloudPanoRenderTime is the cloud cost of producing one panoramic
	// frame.
	CloudPanoRenderTime time.Duration
	// ClientCropTime is the device cost of cropping the panorama to the
	// viewport.
	ClientCropTime time.Duration
}

// DefaultParams returns the calibration used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		CameraW: 720, CameraH: 720,
		DNNInput:   64,
		Seed:       20180820, // SIGCOMM'18 poster session, day one
		FLOPsScale: 220,

		MobileGFLOPS: 7,
		CloudGFLOPS:  14.2,

		EdgeLookupTime: 3 * time.Millisecond,
		EdgeInsertTime: 2 * time.Millisecond,
		EdgeCacheBytes: 256 << 20,
		Threshold:      0.12,

		CloudOBJXParseBps: 150e6,
		ClientCMFLoadBps:  15e6,
		ClientDrawTime:    150 * time.Millisecond,

		PanoWidth:           1024,
		CloudPanoRenderTime: 90 * time.Millisecond,
		ClientCropTime:      12 * time.Millisecond,
	}
}

// Classes returns the recognisable object labels.
func (p Params) Classes() []string { return vision.ClassNames }

// flopsTime converts raw EdgeNet FLOPs to virtual compute time on a
// device with the given effective GFLOPS.
func (p Params) flopsTime(flops int64, gflops float64) time.Duration {
	sec := float64(flops) * p.FLOPsScale / (gflops * 1e9)
	return time.Duration(sec * float64(time.Second))
}

// bytesTime converts a byte count processed at rate (bytes/s) to time.
func bytesTime(n int, bps float64) time.Duration {
	if bps <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bps * float64(time.Second))
}
