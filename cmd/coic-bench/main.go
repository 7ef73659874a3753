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

	coic "github.com/edge-immersion/coic"
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

	p := coic.DefaultParams()
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
	run  func() (*coic.Table, error)
}

// runners lists every experiment at its full size, in print order.
func runners(p coic.Params) []runner {
	return []runner{
		{"fig2a", func() (*coic.Table, error) {
			rows, err := coic.RunFig2a(p)
			if err != nil {
				return nil, err
			}
			return coic.Fig2aTable(rows), nil
		}},
		{"fig2b", func() (*coic.Table, error) {
			rows, err := coic.RunFig2b(p)
			if err != nil {
				return nil, err
			}
			return coic.Fig2bTable(rows), nil
		}},
		{"hitratio", func() (*coic.Table, error) {
			return coic.RunHitRatio(scaled(p), []int{1, 2, 4, 8, 16, 32}, 0.7, p.Seed)
		}},
		{"policy", func() (*coic.Table, error) {
			return coic.RunPolicyAblation(scaled(p), []int{1, 4, 16, 64}, p.Seed)
		}},
		{"threshold", func() (*coic.Table, error) {
			return coic.RunThresholdSweep(p,
				[]float64{0.02, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5}, 32), nil
		}},
		{"index", func() (*coic.Table, error) {
			return coic.RunIndexAblation(64, []int{100, 1000, 10000, 50000}, 200, p.Seed), nil
		}},
		{"coop", func() (*coic.Table, error) {
			return coic.RunCooperation(scaled(p), []int{2, 4, 8}, 12)
		}},
		{"federation", func() (*coic.Table, error) {
			return coic.RunFederation(scaled(p), []int{1, 2, 4, 8}, 24, 2, p.Seed)
		}},
		{"churn", func() (*coic.Table, error) {
			return coic.RunChurn(scaled(p), []int{0, 1, 2}, 4, 2, 24, 2, p.Seed)
		}},
		{"burst", func() (*coic.Table, error) {
			return coic.RunBurst(scaled(p), []int{4, 16, 64}, []float64{0, 0.5, 1})
		}},
		{"qos", func() (*coic.Table, error) {
			return coic.RunQoS(scaled(p), 24, 120*time.Millisecond)
		}},
		{"noisy", func() (*coic.Table, error) {
			return coic.RunNoisyNeighbor(scaled(p), 30, 150*time.Millisecond)
		}},
		{"finegrained", func() (*coic.Table, error) {
			return coic.RunFinegrained(p, []int{1, 4, 16, 64}, 256), nil
		}},
		{"batch", func() (*coic.Table, error) {
			return coic.RunBatch(scaled(p), []int{1, 2, 4, 8, 16}, 12), nil
		}},
		{"pano", func() (*coic.Table, error) {
			return coic.RunPanoStreaming(scaled(p), 8, 40)
		}},
		{"privacy", func() (*coic.Table, error) {
			return coic.RunPrivacy(scaled(p), []int{0, 2, 3, 5, 8}, p.Seed)
		}},
		{"qoe", func() (*coic.Table, error) {
			return coic.RunQoE(scaled(p), 12, p.Seed)
		}},
		{"scene", func() (*coic.Table, error) {
			return coic.RunSharedScene(scaled(p), []int{2, 8, 32}, 24)
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

// scaled shrinks per-request payloads for the trace-driven ablations,
// which replay thousands of requests; the full-size figures (fig2a,
// fig2b) keep paper-scale payloads.
func scaled(p coic.Params) coic.Params {
	p.CameraW, p.CameraH = 256, 256
	p.DNNInput = 32
	p.PanoWidth = 512
	p.MobileGFLOPS *= 4
	return p
}
