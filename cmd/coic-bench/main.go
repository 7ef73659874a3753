// Command coic-bench regenerates every table and figure of the CoIC
// reproduction: Figure 2a, Figure 2b, and the ablation experiments listed
// in README.md ("Experiments ↔ paper figures"). Output is aligned text by default, CSV with -csv, or
// machine-readable JSON with -json (one array of {title, columns, rows,
// notes} objects). A name -experiment does not know is an error (exit 2).
//
// Usage:
//
//	coic-bench                     # run everything
//	coic-bench -experiment fig2a   # one experiment
//	coic-bench -experiment fig2b -csv > fig2b.csv
//	coic-bench -experiment qos -json > bench.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/experiments"
	"github.com/edge-immersion/coic/internal/metrics"
)

func main() {
	experiment := flag.String("experiment", "all",
		"comma-separated experiments to run: all, fig2a, fig2b, hitratio, policy, threshold, index, coop, federation, churn, burst, qos, noisy, finegrained, batch, pano, privacy, qoe, scene")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := flag.Bool("json", false, "emit a JSON array of {title, columns, rows, notes} objects")
	seed := flag.Uint64("seed", 0, "override the reproduction seed (0 = default)")
	flag.Parse()
	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "coic-bench: -csv and -json are mutually exclusive")
		os.Exit(2)
	}

	// SIGINT/SIGTERM stops the sweep at the next experiment boundary
	// (each experiment is seconds, so this is prompt enough for a CLI).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	p := core.DefaultParams()
	if *seed != 0 {
		p.Seed = *seed
	}

	selected, err := selectRunners(runners(p), *experiment)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coic-bench: %v\n", err)
		os.Exit(2)
	}

	var jsonTables []metrics.TableJSON
	for _, r := range selected {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "coic-bench: interrupted")
			os.Exit(130)
		}
		table, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "coic-bench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		switch {
		case *jsonOut:
			jsonTables = append(jsonTables, table.JSON())
		case *csv:
			if err := table.RenderCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "coic-bench: %v\n", err)
				os.Exit(1)
			}
		default:
			if err := table.Render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "coic-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonTables); err != nil {
			fmt.Fprintf(os.Stderr, "coic-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// runner is one -experiment name and the table it prints.
type runner struct {
	name string
	run  func() (*metrics.Table, error)
}

// runners lists every experiment at its full size, in print order.
func runners(p core.Params) []runner {
	// The trace-driven ablations replay thousands of requests, so they run
	// on small payloads; the two figures keep paper-scale ones.
	small := experiments.Scaled(p)
	return []runner{
		{"fig2a", func() (*metrics.Table, error) {
			rows, err := core.RunFig2a(p)
			if err != nil {
				return nil, err
			}
			return experiments.Fig2aTable(rows), nil
		}},
		{"fig2b", func() (*metrics.Table, error) {
			rows, err := core.RunFig2b(p, core.Fig2bModelKB)
			if err != nil {
				return nil, err
			}
			return experiments.Fig2bTable(rows), nil
		}},
		{"hitratio", func() (*metrics.Table, error) {
			return experiments.RunHitRatio(small, []int{1, 2, 4, 8, 16, 32}, 0.7, p.Seed)
		}},
		{"policy", func() (*metrics.Table, error) {
			return experiments.RunPolicyAblation(small, []int{1, 4, 16, 64}, p.Seed)
		}},
		{"threshold", func() (*metrics.Table, error) {
			return experiments.RunThresholdSweep(p,
				[]float64{0.02, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5}, 32), nil
		}},
		{"index", func() (*metrics.Table, error) {
			return experiments.RunIndexAblation(64, []int{100, 1000, 10000, 50000}, 200, p.Seed), nil
		}},
		{"coop", func() (*metrics.Table, error) {
			return experiments.RunCooperation(small, []int{2, 4, 8}, 12)
		}},
		{"federation", func() (*metrics.Table, error) {
			return experiments.RunFederation(small, []int{1, 2, 4, 8}, 24, 2, p.Seed)
		}},
		{"churn", func() (*metrics.Table, error) {
			return experiments.RunChurn(small, []int{0, 1, 2}, 4, 2, 24, 2, p.Seed)
		}},
		{"burst", func() (*metrics.Table, error) {
			return experiments.RunBurst(small, []int{4, 16, 64}, []float64{0, 0.5, 1})
		}},
		{"qos", func() (*metrics.Table, error) {
			return experiments.RunQoS(small, 24, 120*time.Millisecond)
		}},
		{"noisy", func() (*metrics.Table, error) {
			return experiments.RunNoisyNeighbor(small, 30, 150*time.Millisecond)
		}},
		{"finegrained", func() (*metrics.Table, error) {
			return experiments.RunFinegrained(p, []int{1, 4, 16, 64}, 256), nil
		}},
		{"batch", func() (*metrics.Table, error) {
			return experiments.RunBatch(small, []int{1, 2, 4, 8, 16}, 12), nil
		}},
		{"pano", func() (*metrics.Table, error) {
			return experiments.RunPanoStreaming(small, 8, 40)
		}},
		{"privacy", func() (*metrics.Table, error) {
			return experiments.RunPrivacy(small, []int{0, 2, 3, 5, 8}, p.Seed)
		}},
		{"qoe", func() (*metrics.Table, error) {
			return experiments.RunQoE(small, 12, p.Seed)
		}},
		{"scene", func() (*metrics.Table, error) {
			return experiments.RunSharedScene(small, []int{2, 8, 32}, 24)
		}},
	}
}

// selectRunners picks the runners a comma-separated -experiment value
// names ("all" picks every one), in runner order whatever order the list
// has. A name no runner has is an error, so a mistyped name in a list
// fails instead of being skipped.
func selectRunners(all []runner, experiment string) ([]runner, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(experiment, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name != "all" && !slices.ContainsFunc(all, func(r runner) bool { return r.name == name }) {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		want[name] = true
	}
	var picked []runner
	for _, r := range all {
		if want["all"] || want[r.name] {
			picked = append(picked, r)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("no experiment named in %q", experiment)
	}
	return picked, nil
}
