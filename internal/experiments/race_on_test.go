//go:build race

package experiments

// raceEnabled reports that this binary was built with -race. The
// fairness ablation test keeps running under the detector but with
// widened latency bounds: instrumentation slows the flooded data path
// ~5x, which inflates every row's tail without changing the ordering
// the test actually witnesses.
const raceEnabled = true
