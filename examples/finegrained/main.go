// Finegrained: the paper's §4 "ongoing work" — identifying reusable IC
// workload at the granularity of a single DNN layer rather than a whole
// task. This example runs a request stream through a plain network and a
// layer-memoised one and reports the layer hit rate and real speedup.
//
//	go run ./examples/finegrained
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/edge-immersion/coic/internal/core"
	"github.com/edge-immersion/coic/internal/experiments"
)

func main() {
	p := core.DefaultParams()
	fmt.Println("per-layer DNN result reuse (CachedRunner) vs whole-network inference:")
	table := experiments.RunFinegrained(p, []int{1, 4, 16, 64}, 128)
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith identical inputs every layer hits; as the input pool grows the")
	fmt.Println("hit rate tracks input reuse — the whole-task cache in the edge is the")
	fmt.Println("coarse-grained special case of this mechanism.")
}
