package coic

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

// update rewrites testdata/golden/*.txt from the tables this run computes
// (`make golden`). Only a change that means to move a virtual-time number
// should need it; review the diff it leaves.
var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt instead of comparing against them")

// TestVirtualTimeAblationTables runs every virtual-time table on its
// smallest sweep and checks what it prints: the columns cmd/coic-bench
// publishes, one row per sweep point, a replay that served traffic (a
// failed request never reaches a latency column, so an all-error run
// would print zero hit ratios and latencies) — and, since the replays are
// seed-deterministic, the rendered text byte for byte against
// testdata/golden/<name>.txt, so a refactor that moves any latency, hit
// ratio or fetch count fails here instead of in a manual `cmp` of two
// coic-bench runs.
func TestVirtualTimeAblationTables(t *testing.T) {
	if raceEnabled {
		t.Skip("deterministic single-threaded replays; ~10x slower and redundant under -race")
	}
	p := testParams()
	for _, tc := range []struct {
		name    string
		run     func() (*Table, error)
		columns []string
		rows    int
		// positive names a column every row must hold a value > 0 in.
		positive string
	}{
		{"hitratio", func() (*Table, error) { return RunHitRatio(p, []int{2}, 0.7, p.Seed) },
			[]string{"users", "events", "hit_ratio", "coic_mean_ms", "origin_mean_ms", "speedup"}, 1, "coic_mean_ms"},
		{"policy", func() (*Table, error) { return RunPolicyAblation(p, []int{1}, p.Seed) },
			[]string{"capacity_MB", "policy", "hit_ratio", "mean_ms", "evictions"}, 4, "evictions"},
		{"coop", func() (*Table, error) { return RunCooperation(p, []int{2}, 6) },
			[]string{"edges", "peered", "hit_ratio", "peer_hits", "cloud_fetches"}, 2, "cloud_fetches"},
		{"federation", func() (*Table, error) { return RunFederation(p, []int{2}, 4, 1, p.Seed) },
			[]string{"edges", "placement", "federated", "hit_ratio", "peer_hits", "published", "cloud_fetches", "p50_ms", "p99_ms"}, 4, "p50_ms"},
		{"churn", func() (*Table, error) { return RunChurn(p, []int{1}, 3, 2, 4, 1, p.Seed) },
			[]string{"edges", "cycles", "mode", "rf", "hit_ratio", "peer_hits", "repaired", "migrated", "ring_ver", "cloud_fetches", "p50_ms", "p99_ms"}, 2, "p50_ms"},
		{"pano", func() (*Table, error) { return RunPanoStreaming(p, 2, 5) },
			[]string{"mode", "users", "frames", "mean_ms", "p95_ms", "hit_ratio"}, 2, "mean_ms"},
		{"privacy", func() (*Table, error) { return RunPrivacy(p, []int{3}, p.Seed) },
			[]string{"privacy_k", "hit_ratio", "blocked", "mean_ms"}, 1, "mean_ms"},
		{"qoe", func() (*Table, error) { return RunQoE(p, 2, p.Seed) },
			[]string{"task", "origin_qoe", "coic_qoe", "origin_p95_ms", "coic_p95_ms"}, 3, "coic_qoe"},
		{"fig2a", func() (*Table, error) { rows, err := RunFig2a(p); return Fig2aTable(rows), err },
			[]string{"condition", "origin_ms", "hit_ms", "miss_ms", "reduction_%"}, 5, "hit_ms"},
		{"fig2b", func() (*Table, error) { rows, err := RunFig2bSizes(p, []int{231, 1949}); return Fig2bTable(rows), err },
			[]string{"model_KB", "objx_KB", "cmf_KB", "origin_ms", "hit_ms", "miss_ms", "reduction_%"}, 2, "hit_ms"},
		{"burst", func() (*Table, error) { return RunBurst(p, []int{4}, []float64{0, 1}) },
			[]string{"users", "dup_ratio", "mode", "distinct", "cloud_fetches", "saved", "coalesced", "p50_ms", "p99_ms"}, 4, "p50_ms"},
		{"threshold", func() (*Table, error) { return RunThresholdSweep(p, []float64{0.05, 0.12, 0.3}, 4), nil },
			[]string{"threshold", "true_hit_rate", "false_hit_rate"}, 3, "threshold"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			tab, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			var text bytes.Buffer
			if err := tab.Render(&text); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.WriteFile(golden, text.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (go test -run TestVirtualTimeAblationTables -update writes it)", err)
			}
			if !bytes.Equal(text.Bytes(), want) {
				t.Errorf("table differs from %s:\n--- got\n%s--- want\n%s", golden, text.Bytes(), want)
			}
			got := tab.JSON()
			if !reflect.DeepEqual(got.Columns, tc.columns) {
				t.Fatalf("columns = %v, want %v", got.Columns, tc.columns)
			}
			if len(got.Rows) != tc.rows {
				t.Fatalf("%d rows, want %d:\n%v", len(got.Rows), tc.rows, got.Rows)
			}
			col := slices.Index(got.Columns, tc.positive)
			for _, row := range got.Rows {
				if v, err := strconv.ParseFloat(row[col], 64); err != nil || v <= 0 {
					t.Fatalf("%s = %q in row %v, want > 0", tc.positive, row[col], row)
				}
			}
		})
	}
}

// TestSweepsRejectImpossibleFleets: the fleet sizes come from the caller,
// so a size the point functions cannot build is an error, not a panic.
func TestSweepsRejectImpossibleFleets(t *testing.T) {
	p := testParams()
	if _, err := RunFederation(p, []int{0}, 2, 1, p.Seed); err == nil {
		t.Error("RunFederation accepted a fleet of 0 edges")
	}
	if _, err := RunChurn(p, []int{1}, 1, 2, 2, 1, p.Seed); err == nil {
		t.Error("RunChurn accepted a fleet with no victim to crash")
	}
}
