// Package experiments regenerates the paper's Figure 2a and 2b and this
// reproduction's ablations as renderable tables. It is the harness
// around the CoIC library, not part of it: the virtual-time tables drive
// internal/core's replays, and the wall-clock tables (qos, noisy, scene)
// boot a live in-process TCP stack through the root package's public
// API. cmd/coic-bench prints every table at full size; the tests here
// pin the virtual-time tables byte for byte against testdata/golden/.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	coic "github.com/edge-immersion/coic"
	"github.com/edge-immersion/coic/internal/cache"
	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/dnn"
	"github.com/edge-immersion/coic/internal/feature"
	"github.com/edge-immersion/coic/internal/metrics"
	"github.com/edge-immersion/coic/internal/netsim"
	"github.com/edge-immersion/coic/internal/tensor"
	"github.com/edge-immersion/coic/internal/trace"
	"github.com/edge-immersion/coic/internal/vision"
	"github.com/edge-immersion/coic/internal/wire"
	"github.com/edge-immersion/coic/internal/xrand"
)

// Scaled shrinks per-request payloads for the trace-driven ablations,
// which replay thousands of requests; the full-size figures (fig2a,
// fig2b) keep paper-scale payloads.
func Scaled(p core.Params) core.Params {
	p.CameraW, p.CameraH = 256, 256
	p.DNNInput = 32
	p.PanoWidth = 512
	p.MobileGFLOPS *= 4
	return p
}

func msCol(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

// Fig2aTable renders Figure 2a rows the way the paper's chart is read:
// one row per network condition, one column per bar.
func Fig2aTable(rows []core.Fig2aRow) *metrics.Table {
	t := metrics.NewTable(
		"Figure 2a — recognition latency (ms): Origin vs CoIC Cache Hit vs Cache Miss",
		"condition", "origin_ms", "hit_ms", "miss_ms", "reduction_%")
	var maxRed float64
	for _, r := range rows {
		red := r.Reduction() * 100
		if red > maxRed {
			maxRed = red
		}
		t.AddRow(r.Condition.String(), msCol(r.Origin.Total()), msCol(r.Hit.Total()),
			msCol(r.Miss.Total()), fmt.Sprintf("%.2f", red))
	}
	t.AddNote("paper reports up to 52.28%% reduction; this reproduction peaks at %.2f%%", maxRed)
	return t
}

// Fig2bTable renders Figure 2b rows.
func Fig2bTable(rows []core.Fig2bRow) *metrics.Table {
	t := metrics.NewTable(
		"Figure 2b — 3D model load latency (ms): Origin vs CoIC Cache Hit vs Cache Miss",
		"model_KB", "objx_KB", "cmf_KB", "origin_ms", "hit_ms", "miss_ms", "reduction_%")
	var maxRed float64
	for _, r := range rows {
		red := r.Reduction() * 100
		if red > maxRed {
			maxRed = red
		}
		t.AddRow(r.ModelKB, r.OBJXBytes/1024, r.CMFBytes/1024,
			msCol(r.Origin.Total()), msCol(r.Hit.Total()), msCol(r.Miss.Total()),
			fmt.Sprintf("%.2f", red))
	}
	t.AddNote("paper reports up to 75.86%% reduction; this reproduction peaks at %.2f%%", maxRed)
	return t
}

// RunHitRatio measures cache hit ratio and mean latency as the number of
// co-located users grows (the §1.2 redundancy claim made quantitative).
func RunHitRatio(p core.Params, userCounts []int, locality float64, seed uint64) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("T-hit — hit ratio vs co-located users (locality=%.2f)", locality),
		"users", "events", "hit_ratio", "coic_mean_ms", "origin_mean_ms", "speedup")
	for _, users := range userCounts {
		events, err := trace.Generate(trace.Config{
			Users: users, Cells: 4, Duration: 30 * time.Second,
			RatePerUser: 1, Objects: 64, ZipfAlpha: 0.8,
			Locality: locality, HotSetSize: 8,
			TaskMix: trace.TaskMix{Recognize: 0.5, Render: 0.3, Pano: 0.2},
			Seed:    seed,
		})
		if err != nil {
			return nil, err
		}
		coicRes := core.RunTrace(p, core.MidSweep, events, core.ModeCoIC)
		originRes := core.RunTrace(p, core.MidSweep, events, core.ModeOrigin)
		speedup := float64(originRes.All.Mean()) / float64(coicRes.All.Mean())
		t.AddRow(users, coicRes.Events,
			fmt.Sprintf("%.3f", coicRes.HitRatio()),
			msCol(coicRes.All.Mean()), msCol(originRes.All.Mean()),
			fmt.Sprintf("%.2fx", speedup))
	}
	return t, nil
}

// RunPolicyAblation compares eviction policies on one trace across cache
// capacities (the paper's "simple cache management policy" axis).
func RunPolicyAblation(p core.Params, capacitiesMB []int, seed uint64) (*metrics.Table, error) {
	events, err := trace.Generate(trace.Config{
		Users: 12, Cells: 3, Duration: 40 * time.Second,
		RatePerUser: 1, Objects: 96, ZipfAlpha: 0.9,
		Locality: 0.6, HotSetSize: 10,
		TaskMix: trace.TaskMix{Recognize: 0.4, Render: 0.4, Pano: 0.2},
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	policies := []struct {
		name string
		mk   func() cache.Policy
	}{
		{"lru", cache.NewLRU}, {"lfu", cache.NewLFU},
		{"fifo", cache.NewFIFO}, {"gdsf", cache.NewGDSF},
	}
	t := metrics.NewTable("A-policy — eviction policy vs hit ratio",
		"capacity_MB", "policy", "hit_ratio", "mean_ms", "evictions")
	for _, mb := range capacitiesMB {
		for _, pol := range policies {
			pp := p
			pp.EdgeCacheBytes = int64(mb) << 20
			res := core.RunTrace(pp, core.MidSweep, events, core.ModeCoIC, core.WithCachePolicy(pol.mk))
			t.AddRow(mb, pol.name,
				fmt.Sprintf("%.3f", res.HitRatio()),
				msCol(res.All.Mean()),
				res.Cache.Evictions)
		}
	}
	return t, nil
}

// RunThresholdSweep measures descriptor separation: true-hit vs false-hit
// rates across candidate similarity thresholds.
func RunThresholdSweep(p core.Params, thresholds []float64, pairs int) *metrics.Table {
	pts := core.RunThresholdSweep(p, thresholds, pairs)
	t := metrics.NewTable("A-threshold — similarity threshold sensitivity",
		"threshold", "true_hit_rate", "false_hit_rate")
	for _, pt := range pts {
		t.AddRow(fmt.Sprintf("%.3f", pt.Threshold),
			fmt.Sprintf("%.3f", pt.TruePositive),
			fmt.Sprintf("%.3f", pt.FalsePositive))
	}
	t.AddNote("configured threshold: %.3f", p.Threshold)
	return t
}

// RunIndexAblation compares exact linear scan against LSH lookup cost as
// the number of cached descriptors grows, measuring real wall-clock
// lookup time and LSH recall.
func RunIndexAblation(dim int, sizes []int, queries int, seed uint64) *metrics.Table {
	t := metrics.NewTable("A-index — descriptor index lookup cost",
		"cached_vectors", "linear_us", "lsh_us", "lsh_recall")
	rng := xrand.New(seed)
	mkVec := func() []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return feature.NewVector(v).Vec
	}
	for _, n := range sizes {
		lin := feature.NewLinear()
		lsh := feature.NewLSH(dim, 8, 14, seed)
		vecs := make([][]float32, n)
		for i := 0; i < n; i++ {
			vecs[i] = mkVec()
			lin.Add(uint64(i+1), vecs[i])
			lsh.Add(uint64(i+1), vecs[i])
		}
		qs := make([][]float32, queries)
		want := make([]uint64, queries)
		for i := range qs {
			target := rng.Intn(n)
			q := make([]float32, dim)
			copy(q, vecs[target])
			q[0] += 0.01
			qs[i] = feature.NewVector(q).Vec
			want[i] = uint64(target + 1)
		}
		start := time.Now()
		for _, q := range qs {
			lin.Nearest(q)
		}
		linPer := time.Since(start) / time.Duration(queries)

		recall := 0
		start = time.Now()
		for i, q := range qs {
			if id, _, ok := lsh.Nearest(q); ok && id == want[i] {
				recall++
			}
		}
		lshPer := time.Since(start) / time.Duration(queries)

		t.AddRow(n,
			fmt.Sprintf("%.1f", float64(linPer)/float64(time.Microsecond)),
			fmt.Sprintf("%.1f", float64(lshPer)/float64(time.Microsecond)),
			fmt.Sprintf("%.2f", float64(recall)/float64(queries)))
	}
	return t
}

// RunCooperation measures the effect of edge-to-edge peering: users
// behind different edges requesting overlapping content, with and
// without cooperation.
func RunCooperation(p core.Params, edgeCounts []int, requestsPerEdge int) (*metrics.Table, error) {
	t := metrics.NewTable("A-coop — edge-to-edge cooperation",
		"edges", "peered", "hit_ratio", "peer_hits", "cloud_fetches")
	for _, n := range edgeCounts {
		for _, peered := range []bool{false, true} {
			fleet, cloudFetches, err := runCoop(p, n, requestsPerEdge, peered)
			if err != nil {
				return nil, err
			}
			t.AddRow(n, peered, fmt.Sprintf("%.3f", fleet.HitRatio()), fleet.PeerHits, cloudFetches)
		}
	}
	return t, nil
}

func runCoop(p core.Params, edges, requestsPerEdge int, peered bool) (core.FleetStats, int, error) {
	cloud := core.NewCloud(p)
	es := make([]*core.Edge, edges)
	for i := range es {
		es[i] = core.NewEdge(p)
	}
	if peered {
		core.Federate(es, core.FederationConfig{Replicate: true})
	}
	at := time.Date(2018, 8, 20, 9, 0, 0, 0, time.UTC)
	cloudFetches := 0
	modelIDs := []string{coic.AnnotationModelID(coic.ClassCar), coic.AnnotationModelID(coic.ClassTree), coic.AnnotationModelID(coic.ClassDog)}
	for i := 0; i < edges; i++ {
		topo := netsim.NewTopology(core.MidSweep, p.Seed+uint64(i))
		sess := core.NewSession(core.NewClient(i, p), es[i], cloud, topo)
		for r := 0; r < requestsPerEdge; r++ {
			// Every edge's users want the same popular content.
			b, _, err := sess.Do(context.Background(), at.Add(time.Duration(r)*time.Second), core.RenderTask(modelIDs[r%len(modelIDs)]), core.ModeCoIC)
			if err != nil {
				return core.FleetStats{}, 0, err
			}
			if b.Cloud > 0 {
				cloudFetches++
			}
		}
	}
	return core.RollUp(es), cloudFetches, nil
}

// fleetTrace is the workload of overlapping user interest the federation
// and churn ablations share.
func fleetTrace(users int, seed uint64) ([]trace.Event, error) {
	return trace.Generate(trace.Config{
		Users: users, Cells: 8, Duration: 40 * time.Second,
		RatePerUser: 1, Objects: 96, ZipfAlpha: 0.8,
		Locality: 0.7, HotSetSize: 12,
		TaskMix: trace.TaskMix{Recognize: 0.4, Render: 0.4, Pano: 0.2},
		Seed:    seed,
	})
}

// RunFederation is the multi-edge ablation: one workload of overlapping
// user interest replayed over 1..N edges × client placement, with edges
// federated via consistent hashing against an isolated baseline. Per-edge
// cache capacity is deliberately constrained (capacityMB per edge) so a
// lone edge cannot hold the working set: federating edges both pools
// capacity (the partitioned keyspace spreads residency) and bridges
// placement (a user behind edge B reuses what edge A's users computed),
// so the aggregate hit ratio rises and cloud fetches fall as edges are
// added.
func RunFederation(p core.Params, edgeCounts []int, users, capacityMB int, seed uint64) (*metrics.Table, error) {
	events, err := fleetTrace(users, seed)
	if err != nil {
		return nil, err
	}
	p.EdgeCacheBytes = int64(capacityMB) << 20
	var rows []core.FederationRow
	for _, n := range edgeCounts {
		if n < 1 {
			return nil, fmt.Errorf("experiments: federation of %d edges", n)
		}
		for _, placement := range []core.Placement{core.PlaceByCell, core.PlaceScatter} {
			rows = append(rows, core.FederationPoint(p, core.MidSweep, events, n, placement, false))
			if n > 1 { // a single edge has nobody to federate with
				rows = append(rows, core.FederationPoint(p, core.MidSweep, events, n, placement, true))
			}
		}
	}
	return federationTable(rows), nil
}

// federationTable renders federation ablation rows.
func federationTable(rows []core.FederationRow) *metrics.Table {
	t := metrics.NewTable(
		"A-federation — multi-edge cache federation (consistent hashing + peer lookup)",
		"edges", "placement", "federated", "hit_ratio", "peer_hits", "published", "cloud_fetches", "p50_ms", "p99_ms")
	for _, r := range rows {
		t.AddRow(r.Edges, r.Placement.String(), r.Federated,
			fmt.Sprintf("%.3f", r.HitRatio), r.PeerHits, r.Published,
			r.CloudFetches, msCol(r.P50), msCol(r.P99))
	}
	t.AddNote("federated edges resolve misses at the key's home edge (one LAN hop) before the cloud")
	return t
}

// RunChurn is the dynamic-membership ablation: a replicated federation
// (rf-way publish) replays one workload while members crash and rejoin
// mid-run, comparing a ring that follows the membership — rebuilt on
// every change, moved keys migrated from surviving replicas — against
// the static boot-time ring, where a dead member's arc of the keyspace
// degrades to cloud fetches until it returns. The hit-ratio and p99 gap
// between the rows is what gossip-driven membership buys the fleet.
func RunChurn(p core.Params, cycleCounts []int, edges, rf, users, capacityMB int, seed uint64) (*metrics.Table, error) {
	if edges < 2 {
		return nil, fmt.Errorf("experiments: churn needs a stable seed and a victim, got %d edges", edges)
	}
	events, err := fleetTrace(users, seed)
	if err != nil {
		return nil, err
	}
	p.EdgeCacheBytes = int64(capacityMB) << 20
	var rows []core.ChurnRow
	for _, cycles := range cycleCounts {
		if cycles > 0 { // a stable fleet makes both modes identical
			rows = append(rows, core.ChurnPoint(p, core.MidSweep, events, edges, rf, cycles, false))
		}
		rows = append(rows, core.ChurnPoint(p, core.MidSweep, events, edges, rf, cycles, true))
	}
	return churnTable(rows), nil
}

// churnTable renders churn ablation rows.
func churnTable(rows []core.ChurnRow) *metrics.Table {
	t := metrics.NewTable(
		"A-churn — membership churn: dynamic ring + migration vs static ring",
		"edges", "cycles", "mode", "rf", "hit_ratio", "peer_hits", "repaired", "migrated", "ring_ver", "cloud_fetches", "p50_ms", "p99_ms")
	for _, r := range rows {
		mode := "static"
		if r.Dynamic {
			mode = "dynamic"
		}
		t.AddRow(r.Edges, r.Cycles, mode, r.RF,
			fmt.Sprintf("%.3f", r.HitRatio), r.PeerHits, r.Repaired, r.Migrated,
			r.RingVersion, r.CloudFetches, msCol(r.P50), msCol(r.P99))
	}
	t.AddNote("dynamic = ring rebuilt on every crash/rejoin and moved keys migrated; static = boot-time ring, dead arcs fall through to the cloud")
	return t
}

// RunBurst is the miss-coalescing ablation: K users fire requests at the
// edge in the same instant (the correlated bursts of multi-user immersive
// workloads) at each duplication ratio, replayed under the honest serial
// miss policy and under in-flight coalescing. It reports cloud fetches
// (and fetches saved) plus p50/p99 latency — the virtual-time counterpart
// of the TCP edge's singleflight table.
func RunBurst(p core.Params, userCounts []int, dupRatios []float64) (*metrics.Table, error) {
	cloud := core.NewCloud(p)
	var rows []core.BurstRow
	for _, users := range userCounts {
		for _, dup := range dupRatios {
			for _, mode := range []core.InflightMode{core.InflightSerial, core.InflightCoalesce} {
				row, err := core.BurstPoint(p, core.MidSweep, cloud, users, dup, mode)
				if err != nil {
					return nil, fmt.Errorf("burst users=%d dup=%.2f %s: %w", users, dup, mode, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return burstTable(rows), nil
}

// burstTable renders burst ablation rows ordered by users, then
// duplication ratio, then mode (serial before coalesce).
func burstTable(rows []core.BurstRow) *metrics.Table {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Users != b.Users {
			return a.Users < b.Users
		}
		if a.DupRatio != b.DupRatio {
			return a.DupRatio < b.DupRatio
		}
		return a.Mode < b.Mode
	})
	t := metrics.NewTable(
		"A-burst — concurrent-miss coalescing under correlated bursts",
		"users", "dup_ratio", "mode", "distinct", "cloud_fetches", "saved", "coalesced", "p50_ms", "p99_ms")
	for _, r := range rows {
		t.AddRow(r.Users, fmt.Sprintf("%.2f", r.DupRatio), r.Mode.String(), r.Distinct,
			r.CloudFetches, r.SavedFetches(), r.CoalescedJoins,
			msCol(r.P50), msCol(r.P99))
	}
	t.AddNote("serial = every in-flight duplicate pays its own cloud fetch; coalesce = duplicates join the one in-flight fetch")
	return t
}

// RunFinegrained measures the paper's future-work extension: per-DNN-layer
// result reuse. A pool of inputs with repetition runs through a plain
// network and a layer-memoised one; the table reports layer hit rate and
// real compute speedup.
func RunFinegrained(p core.Params, poolSizes []int, requests int) *metrics.Table {
	t := metrics.NewTable("A-layer — fine-grained per-layer DNN caching (future work §4)",
		"distinct_inputs", "requests", "layer_hit_rate", "plain_ms", "cached_ms", "speedup")
	net := dnn.NewEdgeNet(vision.ClassNames, p.DNNInput, p.Seed)
	for _, pool := range poolSizes {
		inputs := make([]*tensor.Tensor, pool)
		for i := range inputs {
			frame := vision.RenderObject(vision.Class(i%int(vision.NumClasses)), vision.CanonicalView(), 64, 64)
			inputs[i] = vision.ToTensor(frame, p.DNNInput)
		}
		start := time.Now()
		for r := 0; r < requests; r++ {
			net.Forward(inputs[r%pool])
		}
		plain := time.Since(start)

		cr := dnn.NewCachedRunner(net, 0)
		start = time.Now()
		for r := 0; r < requests; r++ {
			cr.Forward(inputs[r%pool])
		}
		cached := time.Since(start)
		hits, misses := cr.Stats()
		rate := float64(hits) / float64(hits+misses)
		t.AddRow(pool, requests,
			fmt.Sprintf("%.2f", rate),
			msCol(plain), msCol(cached),
			fmt.Sprintf("%.2fx", float64(plain)/float64(cached)))
	}
	return t
}

// RunBatch measures the batched DNN executor against serial dispatch:
// batches of camera frames (every other frame a bit-identical duplicate,
// the co-located-users workload batching targets) run through N serial
// Forward passes and one ForwardBatch pass. Workers are pinned to one so
// the speedup column is per-core algorithmic gain — blocked matmuls plus
// intra-batch sharing — not parallelism.
func RunBatch(p core.Params, batchSizes []int, rounds int) *metrics.Table {
	t := metrics.NewTable("Batched DNN execution — serial vs ForwardBatch (per core)",
		"batch", "rounds", "serial_ms", "batched_ms", "serial_fps", "batched_fps", "speedup")
	defer tensor.SetMaxWorkers(tensor.SetMaxWorkers(1))
	net := dnn.NewEdgeNet(vision.ClassNames, p.DNNInput, p.Seed)
	for _, bs := range batchSizes {
		inputs := make([]*tensor.Tensor, bs)
		for i := range inputs {
			// Every other member duplicates the previous frame exactly —
			// co-located users viewing the same object.
			src := i
			if i%2 == 1 {
				src = i - 1
			}
			frame := vision.RenderObject(vision.Class(src%int(vision.NumClasses)), vision.CanonicalView(), 64, 64)
			inputs[i] = vision.ToTensor(frame, p.DNNInput)
		}
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, in := range inputs {
				net.Forward(in)
			}
		}
		serial := time.Since(start)

		start = time.Now()
		for r := 0; r < rounds; r++ {
			net.ForwardBatch(inputs)
		}
		batched := time.Since(start)

		items := float64(bs * rounds)
		t.AddRow(bs, rounds,
			msCol(serial), msCol(batched),
			fmt.Sprintf("%.1f", items/serial.Seconds()),
			fmt.Sprintf("%.1f", items/batched.Seconds()),
			fmt.Sprintf("%.2fx", float64(serial)/float64(batched)))
	}
	t.AddNote("single tensor worker; half of each batch duplicates the other half bit-exactly")
	return t
}

// RunPanoStreaming measures the VR path: N users watching the same video
// through one edge, CoIC vs Origin.
func RunPanoStreaming(p core.Params, users, framesPerUser int) (*metrics.Table, error) {
	t := metrics.NewTable("A-pano — shared VR panorama streaming",
		"mode", "users", "frames", "mean_ms", "p95_ms", "hit_ratio")
	events, err := trace.Generate(trace.Config{
		Users: users, Cells: 1, Duration: time.Duration(framesPerUser) * 200 * time.Millisecond,
		RatePerUser: 5, Objects: 2, Locality: 1, HotSetSize: 2,
		TaskMix: trace.TaskMix{Pano: 1},
		Seed:    p.Seed,
	})
	if err != nil {
		return nil, err
	}
	for _, mode := range []core.Mode{core.ModeOrigin, core.ModeCoIC} {
		res := core.RunTrace(p, core.MidSweep, events, mode)
		t.AddRow(mode.String(), users, res.Events,
			msCol(res.All.Mean()), msCol(res.All.P95()),
			fmt.Sprintf("%.3f", res.HitRatio()))
	}
	return t, nil
}

// RunPrivacy measures the privacy/utility trade-off of the k-anonymity
// sharing gate (this reproduction's take on the paper's §4
// "security/privacy protection" future work): higher K withholds more
// cross-user sharing, lowering the hit ratio.
func RunPrivacy(p core.Params, ks []int, seed uint64) (*metrics.Table, error) {
	events, err := trace.Generate(trace.Config{
		Users: 12, Cells: 2, Duration: 30 * time.Second,
		RatePerUser: 1, Objects: 24, ZipfAlpha: 0.9,
		Locality: 0.8, HotSetSize: 6,
		TaskMix: trace.TaskMix{Recognize: 0.4, Render: 0.4, Pano: 0.2},
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("A-privacy — k-anonymity sharing gate vs cache utility",
		"privacy_k", "hit_ratio", "blocked", "mean_ms")
	for _, k := range ks {
		res := core.RunTrace(p, core.MidSweep, events, core.ModeCoIC, core.WithPrivacyK(k))
		t.AddRow(k,
			fmt.Sprintf("%.3f", res.HitRatio()),
			res.Edge.PrivacyBlocked,
			msCol(res.All.Mean()))
	}
	t.AddNote("K=0 disables the gate; blocked = hits withheld from strangers")
	return t, nil
}

// RunQoE scores a mixed workload on the paper's own currency — quality of
// experience — per task and mode, using per-task latency-MOS curves
// (internal/metrics/qoe.go). This is the summary view of "improve QoE of
// immersive computing by cooperatively sharing ... intermediate IC
// results".
func RunQoE(p core.Params, users int, seed uint64) (*metrics.Table, error) {
	events, err := trace.Generate(trace.Config{
		Users: users, Cells: 3, Duration: 30 * time.Second,
		RatePerUser: 1, Objects: 48, ZipfAlpha: 0.9,
		Locality: 0.7, HotSetSize: 8,
		TaskMix: trace.TaskMix{Recognize: 0.4, Render: 0.3, Pano: 0.3},
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("QoE — mean opinion score (1-5) per task, %d users", users),
		"task", "origin_qoe", "coic_qoe", "origin_p95_ms", "coic_p95_ms")
	coicRes := core.RunTrace(p, core.MidSweep, events, core.ModeCoIC)
	originRes := core.RunTrace(p, core.MidSweep, events, core.ModeOrigin)
	rows := []struct {
		task wire.Task
		q    metrics.QoE
	}{
		{wire.TaskRecognize, metrics.QoERecognition},
		{wire.TaskRender, metrics.QoERender},
		{wire.TaskPano, metrics.QoEPano},
	}
	for _, r := range rows {
		o, c := originRes.PerTask[r.task], coicRes.PerTask[r.task]
		t.AddRow(r.task.String(),
			fmt.Sprintf("%.2f", r.q.MeanScore(o)),
			fmt.Sprintf("%.2f", r.q.MeanScore(c)),
			msCol(o.P95()), msCol(c.P95()))
	}
	return t, nil
}

// RunQoS is the deadline-aware scheduling ablation, run on a live
// in-process TCP stack through the public streaming API. One client
// holds two streams on one connection: a background stream flooding the
// edge with distinct (always-miss) panorama fetches, and a foreground
// stream issuing one request at a time against a motion-to-photon
// budget. The edge runs a single worker over a delay-dominated cloud
// link, so queued work — not CPU — is what the foreground waits on.
// Three rows isolate what the scheduler buys:
//
//   - none: no background load — the foreground floor.
//   - fifo: foreground and background both carry no QoS metadata — the
//     pre-QoS edge. The foreground absorbs the whole backlog and blows
//     its budget (lateness is scored client-side against the same
//     deadline).
//   - qos:  background coic.QoSBestEffort, foreground coic.QoSInteractive with the
//     deadline on the wire — the scheduler dispatches every queued
//     interactive request first and sheds it unexecuted if the budget
//     expires in the queue.
//
// interactiveN is how many foreground requests to measure per row;
// deadline is their budget. Latencies are wall clock, so exact numbers
// vary by host; the fifo vs qos contrast is the result.
func RunQoS(p core.Params, interactiveN int, deadline time.Duration) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("A-qos — interactive latency under best-effort background load (budget %v)", deadline),
		"scheduling", "interactive_n", "p50_ms", "p99_ms", "late_or_shed", "edge_sheds", "bg_admitted", "bg_completed")
	rows := []struct {
		name string
		load bool
		qos  bool // encode class + deadline on the wire
	}{
		{"none", false, true},
		{"fifo", true, false},
		{"qos", true, true},
	}
	for _, row := range rows {
		if err := runQoSRow(p, t, row.name, row.load, row.qos, interactiveN, deadline); err != nil {
			return nil, err
		}
	}
	t.AddNote("fifo = no QoS metadata on the wire (the pre-QoS edge); qos = interactive class + deadline")
	t.AddNote("late_or_shed = foreground completions past their budget (shed at the edge or landed late)")
	return t, nil
}

// qosHarness is the live in-process TCP stack the RunQoS ablation and
// BenchmarkStreamServe share, so the two measurements cannot drift
// apart: a one-worker edge over a ~40ms-RTT shaped link (queued
// requests wait on the wire, not the CPU, so scheduling order is what
// decides the foreground's fate) and one client connection both streams
// ride on.
type qosHarness struct {
	edge   *coic.Server
	client *coic.Client
	addr   string
	params core.Params
	ctx    context.Context
	cancel context.CancelFunc
}

// newQoSHarness boots the stack; extra server options (tenant quotas,
// worker counts, upstream limits) are appended to the base edge
// configuration, so later options win.
func newQoSHarness(p core.Params, extra ...coic.ServerOption) (*qosHarness, error) {
	// Delay-dominated service: small panoramas keep render and crop
	// cheap; the shaped link supplies the latency.
	p.PanoWidth = 256
	ctx, cancel := context.WithCancel(context.Background())
	ok := false
	defer func() {
		if !ok {
			cancel()
		}
	}()
	cloudLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go coic.NewCloudServer(coic.WithListener(cloudLn), coic.WithServeParams(p)).Serve(ctx)
	edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	edge := coic.NewEdgeServer(append([]coic.ServerOption{
		coic.WithListener(edgeLn),
		coic.WithServeParams(p),
		coic.WithCloud(cloudLn.Addr().String()),
		coic.WithCloudShape("rate 200mbit delay 20ms"),
		coic.WithWorkers(1),
		coic.WithQueueDepth(64),
	}, extra...)...)
	go edge.Serve(ctx)
	cli, err := coic.NewClient(ctx, edgeLn.Addr().String(), coic.WithDialParams(p))
	if err != nil {
		return nil, err
	}
	ok = true
	return &qosHarness{
		edge: edge, client: cli,
		addr: edgeLn.Addr().String(), params: p,
		ctx: ctx, cancel: cancel,
	}, nil
}

// dial opens an additional client connection to the harness edge (the
// noisy-neighbor ablation gives each tenant its own connection, which
// is how real apps arrive).
func (h *qosHarness) dial(opts ...coic.DialOption) (*coic.Client, error) {
	return coic.NewClient(h.ctx, h.addr, append([]coic.DialOption{coic.WithDialParams(h.params)}, opts...)...)
}

// Close tears the stack down (servers drain, the client connection
// closes).
func (h *qosHarness) Close() {
	h.client.Close()
	h.cancel()
}

// flood saturates cli's connection with distinct (always-miss) pano
// fetches through a standing window; each one costs a shaped cloud
// fetch, building a backlog in the edge's scheduler. tagged submits them
// as coic.QoSBestEffort; untagged carries no QoS metadata (the pre-QoS FIFO
// baseline). It waits ~300ms so callers measure against an established
// backlog. The returned stop (idempotent, so it can be both called and
// deferred) ends the load, drains the stream, and reports how many
// fetches completed.
func (h *qosHarness) flood(cli *coic.Client, tagged bool, window int) (stop func() int, err error) {
	bgCtx, bgStop := context.WithCancel(h.ctx)
	bg, err := cli.Stream(bgCtx, coic.WithWindow(window))
	if err != nil {
		bgStop()
		return nil, err
	}
	results := bg.Results()
	done := make(chan int, 1)
	go func() {
		n := 0
		for comp := range results {
			if comp.Err == nil {
				n++
			}
		}
		done <- n
	}()
	go func() {
		for frame := 0; ; frame++ {
			req := coic.PanoTask("qos-bg", frame, coic.Viewport{FOV: 1.6})
			if tagged {
				req = req.WithQoS(coic.QoSBestEffort)
			}
			if _, err := bg.Submit(bgCtx, req); err != nil {
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond) // let the backlog build
	var once sync.Once
	completed := 0
	return func() int {
		once.Do(func() {
			bgStop()
			bg.Close()
			completed = <-done
		})
		return completed
	}, nil
}

// noFlood is the stop of a row that runs without background load.
func noFlood() int { return 0 }

// paced measures n foreground requests on cli, one at a time at display
// rate. It returns their latencies and how many were late: shed at the
// edge on their wire deadline or, when budget is nonzero, slower than it
// (scored client-side).
func (h *qosHarness) paced(cli *coic.Client, n int, budget time.Duration, request func(i int) coic.Request) (*metrics.Histogram, int, error) {
	fg, err := cli.Stream(h.ctx, coic.WithWindow(1))
	if err != nil {
		return nil, 0, err
	}
	defer fg.Close()
	hist := &metrics.Histogram{}
	late := 0
	for i := 0; i < n; i++ {
		ticket, err := fg.Submit(h.ctx, request(i))
		if err != nil {
			return nil, 0, err
		}
		comp, err := ticket.Await(h.ctx)
		switch {
		case errors.Is(err, coic.ErrDeadlineExceeded):
			late++
		case err != nil:
			return nil, 0, err
		case budget > 0 && comp.Latency > budget:
			late++
		}
		hist.Record(comp.Latency)
		time.Sleep(2 * time.Millisecond) // display-rate pacing
	}
	return hist, late, nil
}

func runQoSRow(p core.Params, t *metrics.Table, name string, load, qos bool, interactiveN int, deadline time.Duration) error {
	h, err := newQoSHarness(p)
	if err != nil {
		return err
	}
	defer h.Close()

	stopBG := noFlood
	if load {
		if stopBG, err = h.flood(h.client, qos, 6); err != nil {
			return err
		}
		defer stopBG()
	}

	budget := deadline // fifo row: score the same budget client-side
	if qos {
		budget = 0 // the deadline rides the wire; the edge sheds
	}
	hist, late, err := h.paced(h.client, interactiveN, budget, func(i int) coic.Request {
		req := coic.PanoTask("qos-fg", i, coic.Viewport{FOV: 1.6})
		if qos {
			req = req.WithQoS(coic.QoSInteractive).WithDeadline(deadline)
		}
		return req
	})
	if err != nil {
		return fmt.Errorf("experiments: qos row %s: %w", name, err)
	}

	bgCompleted := stopBG() // drain the background stream so bg_completed is final
	stats := h.edge.Stats()
	t.AddRow(name, interactiveN,
		msCol(hist.Median()), msCol(hist.P99()),
		late, stats.DeadlineSheds,
		stats.AdmittedBestEffort+stats.AdmittedInteractive-uint64(interactiveN), bgCompleted)
	return nil
}

// RunNoisyNeighbor is the multi-tenant isolation ablation. Two tenants
// share one edge from separate connections — which is how distinct apps
// arrive, so the per-connection QoS scheduler cannot arbitrate between
// them: their traffic meets at the edge's shared upstream link. The
// noisy tenant floods best-effort always-miss panorama fetches; the
// victim issues paced interactive requests and its p99 is the result.
// Four rows isolate what each tenant mechanism buys:
//
//   - solo:   no noisy tenant — the victim's uncontended floor.
//   - pooled: both tenants land on the default tenant (the pre-tenant
//     edge). The flood owns every upstream slot and the victim's
//     fetches wait behind the whole backlog.
//   - fair:   tenants authenticate via coic.WithTenant and the edge caps
//     each tenant at its weighted share of the upstream slots — the
//     flood can no longer hold every slot, so the victim finds one
//     free (or at worst one in-service residual away) instead of
//     waiting behind the whole backlog.
//   - quota:  fair plus a token-bucket admission rate on the noisy
//     tenant, so most of the flood is rejected with CodeQuotaExceeded
//     before it ever competes for a slot.
//
// victimN is how many victim requests to measure per row; budget is
// the latency each completion is scored against (client-side — victim
// requests carry no wire deadline, so p99 reflects true service time,
// never an early shed).
func RunNoisyNeighbor(p core.Params, victimN int, budget time.Duration) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("A-noisy — victim interactive latency under a competing tenant's flood (budget %v)", budget),
		"isolation", "victim_n", "p50_ms", "p99_ms", "over_budget",
		"victim_admitted", "noisy_admitted", "noisy_quota_rejected", "noisy_completed")
	rows := []struct {
		name    string
		load    bool // run the noisy tenant's flood
		tenants bool // authenticate tenants and weight the upstream gate
		quota   bool // rate-limit the noisy tenant's admission
	}{
		{"solo", false, true, false},
		{"pooled", true, false, false},
		{"fair", true, true, false},
		{"quota", true, true, true},
	}
	for _, row := range rows {
		if err := runNoisyRow(p, t, row.name, row.load, row.tenants, row.quota, victimN, budget); err != nil {
			return nil, err
		}
	}
	t.AddNote("pooled = tenantless dials sharing the default tenant (the pre-tenant edge)")
	t.AddNote("fair = coic.WithTenant dials + weighted fair upstream slots; quota = fair + noisy admission rate cap")
	t.AddNote("over_budget = victim completions slower than the budget, scored client-side")
	return t, nil
}

func runNoisyRow(p core.Params, t *metrics.Table, name string, load, tenants, quota bool, victimN int, budget time.Duration) error {
	// Eight workers per connection let the flood actually reach the
	// upstream gate concurrently; three slots make the gate — not the
	// per-connection pool — the contended resource, as it is when many
	// connections share one uplink.
	serverOpts := []coic.ServerOption{coic.WithWorkers(8), coic.WithMaxUpstream(3)}
	if tenants {
		serverOpts = append(serverOpts,
			coic.WithTenantQuota("victim", coic.TenantConfig{Weight: 4}),
			coic.WithTenantQuota("noisy", coic.TenantConfig{Weight: 1}))
	}
	if quota {
		serverOpts = append(serverOpts,
			coic.WithTenantQuota("noisy", coic.TenantConfig{Rate: 10, Burst: 2, Weight: 1}))
	}
	h, err := newQoSHarness(p, serverOpts...)
	if err != nil {
		return err
	}
	defer h.Close()

	victimTenant, noisyTenant := coic.DefaultTenant, coic.DefaultTenant
	var victimDial, noisyDial []coic.DialOption
	if tenants {
		victimTenant, noisyTenant = "victim", "noisy"
		victimDial = append(victimDial, coic.WithTenant("victim", ""))
		noisyDial = append(noisyDial, coic.WithTenant("noisy", ""))
	}
	victim, err := h.dial(victimDial...)
	if err != nil {
		return err
	}
	defer victim.Close()

	// One unrecorded warmup fetch before the flood exists: it pays the
	// lazy upstream-mux dial so the solo floor (and every other row)
	// measures steady-state service, not connection setup.
	if _, _, err := h.paced(victim, 1, 0, func(int) coic.Request {
		return coic.PanoTask("noisy-warm", 0, coic.Viewport{FOV: 1.6})
	}); err != nil {
		return fmt.Errorf("experiments: noisy row %s warmup: %w", name, err)
	}

	stopBG := noFlood
	if load {
		noisy, err := h.dial(noisyDial...)
		if err != nil {
			return err
		}
		defer noisy.Close()
		if stopBG, err = h.flood(noisy, true, 12); err != nil {
			return err
		}
		defer stopBG()
	}

	// Victim requests carry no wire deadline, so none is ever shed: over
	// is purely the client-side budget check.
	hist, over, err := h.paced(victim, victimN, budget, func(i int) coic.Request {
		return coic.PanoTask("noisy-fg", i, coic.Viewport{FOV: 1.6}).WithQoS(coic.QoSInteractive)
	})
	if err != nil {
		return fmt.Errorf("experiments: noisy row %s: %w", name, err)
	}

	bgCompleted := stopBG() // drain the flood so noisy_completed is final
	stats := h.edge.Stats()
	t.AddRow(name, victimN,
		msCol(hist.Median()), msCol(hist.P99()), over,
		stats.Tenants[victimTenant].AdmittedInteractive,
		stats.Tenants[noisyTenant].AdmittedBestEffort,
		stats.Tenants[noisyTenant].QuotaRejections,
		bgCompleted)
	return nil
}

// RunSharedScene is the collaborative-session ablation: one edge hosts a
// shared scene, M members join it over real TCP connections, and one of
// them publishes a stream of updates. Each update is a unique key, so
// every member's arrival can be correlated with the publish that caused
// it; propagation is wall-clock time from the Publish call to the pushed
// event landing on a member (the publisher's own loopback push
// included). At quiesce the row verifies convergence — every member's
// mirror holds the publisher's exact version vector — which is the
// CRDT-lite guarantee the fan-out is supposed to deliver.
//
// memberCounts sizes the room per row (the paper's shared-immersion
// scenario is a handful of co-located users; 32 stresses the fan-out);
// updates is how many publishes each row measures.
func RunSharedScene(p core.Params, memberCounts []int, updates int) (*metrics.Table, error) {
	t := metrics.NewTable(
		"A-scene — shared-scene update propagation vs room size",
		"members", "updates", "deliveries", "p50_ms", "p99_ms", "converged")
	for _, m := range memberCounts {
		if err := runSceneRow(p, t, m, updates); err != nil {
			return nil, err
		}
	}
	t.AddNote("propagation = Publish call to pushed event arrival, across all members (publisher included)")
	t.AddNote("converged = every member's version vector equals the publisher's at quiesce")
	return t, nil
}

func runSceneRow(p core.Params, t *metrics.Table, members, updates int) error {
	h, err := newQoSHarness(p, coic.WithWorkers(4))
	if err != nil {
		return err
	}
	defer h.Close()

	// t0[i] is when update i was published, stamped (atomically — the
	// member goroutines read it on arrival) before the publish ships.
	t0 := make([]atomic.Int64, updates)

	clients := []*coic.Client{h.client}
	for i := 1; i < members; i++ {
		cli, err := h.dial()
		if err != nil {
			return err
		}
		defer cli.Close()
		clients = append(clients, cli)
	}
	scenes := make([]*coic.Scene, len(clients))
	for i, cli := range clients {
		sc, err := cli.JoinScene(h.ctx, "bench", coic.WithSceneWindow(updates+1))
		if err != nil {
			return fmt.Errorf("experiments: scene row %d members: join: %w", members, err)
		}
		scenes[i] = sc
	}

	// Every member (the publisher too — its own update comes back as a
	// push) records each update's propagation delay.
	hist := &metrics.Histogram{}
	var histMu sync.Mutex
	var wg sync.WaitGroup
	for _, sc := range scenes {
		wg.Add(1)
		go func(sc *coic.Scene) {
			defer wg.Done()
			seen := 0
			for ev := range sc.Events() {
				var idx int
				if _, err := fmt.Sscanf(ev.Key, "u%d", &idx); err != nil || idx >= updates {
					continue
				}
				d := time.Duration(time.Now().UnixNano() - t0[idx].Load())
				histMu.Lock()
				hist.Record(d)
				histMu.Unlock()
				if seen++; seen == updates {
					return
				}
			}
		}(sc)
	}

	pub := scenes[0]
	for i := 0; i < updates; i++ {
		t0[i].Store(time.Now().UnixNano())
		if _, err := pub.Publish(h.ctx, fmt.Sprintf("u%d", i), []byte{byte(i)}); err != nil {
			return fmt.Errorf("experiments: scene row %d members: publish: %w", members, err)
		}
		time.Sleep(2 * time.Millisecond) // display-rate pacing
	}
	wg.Wait() // every member saw every update

	want := pub.VersionVector()
	converged := true
	for _, sc := range scenes {
		if !maps.Equal(sc.VersionVector(), want) {
			converged = false
		}
	}
	t.AddRow(members, updates, hist.Count(),
		msCol(hist.Median()), msCol(hist.P99()), converged)
	return nil
}
