package coic_test

// Benchmarks: one per figure of the paper plus micro-benchmarks for the
// substrates the experiments lean on. Latency figures are *simulated*
// time, reported via the sim-ms/op metric (wall-clock b.N timing measures
// only harness overhead); micro-benches measure real compute.
//
//	go test -bench=. -benchmem
//
// The rows the paper prints come from cmd/coic-bench; these benches make
// the same pipelines measurable under the standard Go tooling.

import (
	"context"
	"fmt"
	"testing"
	"time"

	coic "github.com/edge-immersion/coic"
)

func benchParams() coic.Params {
	p := coic.DefaultParams()
	// Trim payloads so -bench runs in seconds; the shape (who wins) is
	// unaffected and the full-size numbers come from cmd/coic-bench.
	p.CameraW, p.CameraH = 256, 256
	p.DNNInput = 32
	p.PanoWidth = 512
	p.MobileGFLOPS *= 4
	return p
}

// BenchmarkFig2aRecognition regenerates a Figure 2a cell per iteration:
// sub-benchmarks cover every (condition, mode) pair; sim-ms/op is the
// simulated user-perceived latency.
func BenchmarkFig2aRecognition(b *testing.B) {
	for _, cond := range coic.Fig2aConditions() {
		for _, tc := range []struct {
			name string
			mode coic.Mode
			warm bool
		}{
			{"origin", coic.ModeOrigin, false},
			{"hit", coic.ModeCoIC, true},
			{"miss", coic.ModeCoIC, false},
		} {
			b.Run(fmt.Sprintf("%s/%s", cond.Name, tc.name), func(b *testing.B) {
				p := benchParams()
				var simTotal time.Duration
				for i := 0; i < b.N; i++ {
					sys, err := coic.New(coic.WithParams(p), coic.WithCondition(cond))
					if err != nil {
						b.Fatal(err)
					}
					if tc.warm {
						if _, err := sys.Do(context.Background(), 0, coic.RecognizeTask(coic.ClassStopSign, 1)); err != nil {
							b.Fatal(err)
						}
						sys.Advance(time.Minute)
					}
					res, err := sys.Do(context.Background(), 0,
						coic.RecognizeTask(coic.ClassStopSign, uint64(100+i)).WithMode(tc.mode))
					if err != nil {
						b.Fatal(err)
					}
					if tc.warm && res.Breakdown.Outcome.String() == "miss" {
						b.Fatal("warm request missed")
					}
					simTotal += res.Breakdown.Total()
				}
				b.ReportMetric(float64(simTotal.Milliseconds())/float64(b.N), "sim-ms/op")
			})
		}
	}
}

// BenchmarkFig2bModelLoad regenerates Figure 2b cells. Origin and hit
// reuse one System across iterations (origin never caches, so every
// iteration is identical; hit stays warm by construction); the miss case
// pays a fresh edge per iteration and uses the smallest ladder size. The
// full six-size sweep is cmd/coic-bench's job.
func BenchmarkFig2bModelLoad(b *testing.B) {
	for _, kb := range []int{231, 1073} {
		for _, tc := range []struct {
			name string
			mode coic.Mode
		}{
			{"origin", coic.ModeOrigin},
			{"hit", coic.ModeCoIC},
		} {
			b.Run(fmt.Sprintf("%dKB/%s", kb, tc.name), func(b *testing.B) {
				p := benchParams()
				sys, err := coic.New(coic.WithParams(p))
				if err != nil {
					b.Fatal(err)
				}
				id := coic.SceneModelID(kb)
				if tc.mode == coic.ModeCoIC {
					if _, err := sys.Do(context.Background(), 0, coic.RenderTask(id)); err != nil {
						b.Fatal(err)
					}
				}
				var simTotal time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.Advance(time.Minute)
					res, err := sys.Do(context.Background(), 0, coic.RenderTask(id).WithMode(tc.mode))
					if err != nil {
						b.Fatal(err)
					}
					simTotal += res.Breakdown.Total()
				}
				b.ReportMetric(float64(simTotal.Milliseconds())/float64(b.N), "sim-ms/op")
			})
		}
	}
	b.Run("231KB/miss", func(b *testing.B) {
		p := benchParams()
		var simTotal time.Duration
		for i := 0; i < b.N; i++ {
			sys, err := coic.New(coic.WithParams(p))
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.Do(context.Background(), 0, coic.RenderTask(coic.SceneModelID(231)))
			if err != nil {
				b.Fatal(err)
			}
			if res.Breakdown.Outcome.String() != "miss" {
				b.Fatal("expected a cold miss")
			}
			simTotal += res.Breakdown.Total()
		}
		b.ReportMetric(float64(simTotal.Milliseconds())/float64(b.N), "sim-ms/op")
	})
}

// BenchmarkPanoStreaming measures the VR panorama path (A-pano).
func BenchmarkPanoStreaming(b *testing.B) {
	for _, tc := range []struct {
		name string
		mode coic.Mode
	}{{"origin", coic.ModeOrigin}, {"coic", coic.ModeCoIC}} {
		b.Run(tc.name, func(b *testing.B) {
			p := benchParams()
			sys, err := coic.New(coic.WithParams(p), coic.WithClients(2))
			if err != nil {
				b.Fatal(err)
			}
			// Warm with user 0; measure user 1 (the sharing beneficiary).
			if _, err := sys.Do(context.Background(), 0,
				coic.PanoTask("bench", 0, coic.Viewport{FOV: 1.6}).WithMode(tc.mode)); err != nil {
				b.Fatal(err)
			}
			var simTotal time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Advance(time.Second)
				res, err := sys.Do(context.Background(), 1,
					coic.PanoTask("bench", 0, coic.Viewport{Yaw: 1, FOV: 1.6}).WithMode(tc.mode))
				if err != nil {
					b.Fatal(err)
				}
				simTotal += res.Breakdown.Total()
			}
			b.ReportMetric(float64(simTotal.Milliseconds())/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkDescriptorExtraction measures the real client-side DNN trunk
// cost (the dominant term of the CoIC hit path).
func BenchmarkDescriptorExtraction(b *testing.B) {
	p := benchParams()
	sys, err := coic.New(coic.WithParams(p))
	if err != nil {
		b.Fatal(err)
	}
	frame, err := sys.CaptureFrame(0, coic.ClassCar, 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = frame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Advance(time.Second)
		if _, err := sys.Do(context.Background(), 0, coic.RecognizeTask(coic.ClassCar, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
