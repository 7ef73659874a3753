package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/edge-immersion/coic/internal/metrics"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/pano"
	"github.com/edge-immersion/coic/internal/sim"
)

// This file is the burst ablation: what happens when K users fire
// requests at the edge in the same instant — the correlated-arrival
// pattern of multi-user immersive workloads (a crowd at one landmark, an
// audience scrubbing to the same VR scene). The sweep replays each
// burst under the honest serial miss policy (every in-flight duplicate
// pays its own cloud fetch) and under miss coalescing (duplicates join
// the one in-flight fetch), quantifying the cloud fetches saved and the
// tail-latency effect.

// BurstRow is one (users, duplication, mode) point of the sweep.
type BurstRow struct {
	Users    int
	DupRatio float64
	// Mode is the virtual in-flight policy the point ran under:
	// InflightSerial (no coalescing) or InflightCoalesce.
	Mode     InflightMode
	Events   int
	Errors   int
	Distinct int
	// CloudFetches counts requests that paid a cloud computation.
	CloudFetches int
	// CoalescedJoins counts requests served by joining an in-flight
	// fetch.
	CoalescedJoins uint64
	P50, P99       time.Duration
}

// SavedFetches is the offload delta of coalescing: requests that produced
// no cloud computation of their own. In a single cold burst every
// non-fetching request was either coalesced or (serial mode) zero.
func (r BurstRow) SavedFetches() int { return r.Events - r.CloudFetches }

// BurstPoint fires one cold-edge burst: users VR panorama fetches — the
// task whose descriptor space is unbounded, so any duplication level is
// expressible — 10µs apart (effectively simultaneous relative to a cloud
// round trip, but deterministic), under the given virtual in-flight
// policy. dup is the content duplication: 0 means every user wants a
// distinct result, 1 means the whole burst wants the same one; the burst
// uses max(1, round(users·(1−dup))) distinct descriptors.
func BurstPoint(p Params, cond netsim.Condition, cloud *Cloud, users int, dup float64, mode InflightMode) (BurstRow, error) {
	if users <= 0 {
		return BurstRow{}, fmt.Errorf("core: burst with %d users", users)
	}
	if dup < 0 || dup > 1 {
		return BurstRow{}, fmt.Errorf("core: duplication ratio %v outside [0,1]", dup)
	}
	distinct := int(math.Round(float64(users) * (1 - dup)))
	if distinct < 1 {
		distinct = 1
	}
	row := BurstRow{Users: users, DupRatio: dup, Mode: mode, Distinct: distinct}

	edge := NewEdge(p, WithInflightMode(mode))
	topo := netsim.NewTopology(cond, p.Seed)
	hist := &metrics.Histogram{}
	eng := sim.New(epoch)
	var firstErr error
	for i := 0; i < users; i++ {
		i := i
		// Pano tasks never touch the DNN trunk, so the clients carry none.
		sess := NewSession(&Client{ID: i, Params: p}, edge, cloud, topo)
		eng.Schedule(epoch.Add(time.Duration(i)*10*time.Microsecond), func() {
			// User i wants frame i%distinct: the duplication knob decides
			// how many users collide on each descriptor.
			vp := pano.Viewport{Yaw: float64(i%6) / 2, FOV: 1.6}
			b, _, err := sess.Do(context.Background(), eng.Now(), PanoTask("burst-video", i%distinct, vp), ModeCoIC)
			row.Events++
			if err != nil {
				row.Errors++
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if b.Cloud > 0 {
				row.CloudFetches++
			}
			hist.Record(b.Total())
		})
	}
	eng.Run()
	if firstErr != nil {
		return row, firstErr
	}
	row.CoalescedJoins = edge.Stats().Coalesced
	row.P50, row.P99 = hist.Median(), hist.P99()
	return row, nil
}
