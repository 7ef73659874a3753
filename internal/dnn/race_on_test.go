//go:build race

package dnn

// raceEnabled reports that this binary was built with -race, whose
// instrumentation changes what a pass allocates, so allocation budgets
// skip under it.
const raceEnabled = true
