// Cooperative: the paper's motivating claim made visible — as more users
// share a place, more IC computation is redundant, and CoIC's shared edge
// cache turns that redundancy into latency savings. This example sweeps
// the user count and prints the hit ratio and mean-latency speedup.
//
//	go run ./examples/cooperative
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/experiments"
)

func main() {
	// Trace-driven multi-user replay with small payloads (this example
	// replays thousands of requests).
	p := experiments.Scaled(core.DefaultParams())

	fmt.Println("sweeping co-located user counts (locality 0.7)...")
	table, err := experiments.RunHitRatio(p, []int{1, 2, 4, 8, 16}, 0.7, p.Seed)
	if err != nil {
		log.Fatal(err)
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nand with users spread thin (locality 0.1) for contrast...")
	table, err = experiments.RunHitRatio(p, []int{4, 16}, 0.1, p.Seed)
	if err != nil {
		log.Fatal(err)
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
