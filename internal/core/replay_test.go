package core

import (
	"testing"
	"time"

	"github.com/edge-immersion/coic/internal/trace"
)

// fleetEvents is a small workload of overlapping interest across cells.
func fleetEvents(t *testing.T, p Params) []trace.Event {
	t.Helper()
	events, err := trace.Generate(trace.Config{
		Users: 6, Cells: 4, Duration: 12 * time.Second,
		RatePerUser: 1, Objects: 96, ZipfAlpha: 0.8,
		Locality: 0.7, HotSetSize: 12,
		TaskMix: trace.TaskMix{Recognize: 0.3, Render: 0.5, Pano: 0.2},
		Seed:    p.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestFederationPointOfOneEdgeIsRunTrace pins the shared replay: a
// one-edge "fleet" is RunTrace, whichever entry point builds it.
func TestFederationPointOfOneEdgeIsRunTrace(t *testing.T) {
	p := testParams()
	p.EdgeCacheBytes = 1 << 20
	events := fleetEvents(t, p)
	res := RunTrace(p, testCond, events, ModeCoIC)
	if res.Errors != 0 || res.Events != len(events) {
		t.Fatalf("RunTrace: %d events, %d errors, want %d/0", res.Events, res.Errors, len(events))
	}
	row := FederationPoint(p, testCond, events, 1, PlaceByCell, false)
	if row.Events != res.Events || row.Errors != res.Errors ||
		row.HitRatio != res.HitRatio() || row.CloudFetches != res.CloudFetches ||
		row.P50 != res.All.Median() || row.P99 != res.All.P99() {
		t.Fatalf("one-edge point differs from RunTrace:\n%+v\nhit=%v fetches=%d p50=%v p99=%v",
			row, res.HitRatio(), res.CloudFetches, res.All.Median(), res.All.P99())
	}
}

// TestRunTraceEvictionsFollowCapacity checks the store counters RunTrace
// carries: a cache far below the working set evicts, a roomy one less.
func TestRunTraceEvictionsFollowCapacity(t *testing.T) {
	p := testParams()
	events := fleetEvents(t, p)
	evictions := func(mb int64) uint64 {
		p.EdgeCacheBytes = mb << 20
		return RunTrace(p, testCond, events, ModeCoIC).Cache.Evictions
	}
	if small, large := evictions(1), evictions(64); small <= large {
		t.Fatalf("evictions at 1 MB = %d, at 64 MB = %d: want more when smaller", small, large)
	}
}

// TestChurnPointReplays is the seed-replayability check of the churn
// ablation: migration sweeps walk residents in key order, so two runs of
// the dynamic point agree in every column — and the two modes differ the
// way the table says (the dynamic ring moved once per change and keys
// migrated; the static ring stayed put).
func TestChurnPointReplays(t *testing.T) {
	if raceEnabled {
		t.Skip("deterministic single-threaded replay; ~10x slower and redundant under -race")
	}
	p := testParams()
	p.EdgeCacheBytes = 1 << 20
	events := fleetEvents(t, p)
	const edges, rf, cycles = 4, 2, 2
	dyn := ChurnPoint(p, testCond, events, edges, rf, cycles, true)
	if again := ChurnPoint(p, testCond, events, edges, rf, cycles, true); again != dyn {
		t.Fatalf("dynamic churn point not replayable:\n%+v\n%+v", dyn, again)
	}
	static := ChurnPoint(p, testCond, events, edges, rf, cycles, false)
	for _, r := range []ChurnRow{dyn, static} {
		if r.Errors != 0 || r.Events != len(events) {
			t.Fatalf("row %+v: want %d events and no errors", r, len(events))
		}
	}
	if dyn.RingVersion != 1+2*cycles || dyn.Migrated == 0 {
		t.Fatalf("dynamic ring never followed the membership: %+v", dyn)
	}
	if static.RingVersion != 0 && static.RingVersion != 1 || static.Migrated != 0 {
		t.Fatalf("static ring moved: %+v", static)
	}
}
