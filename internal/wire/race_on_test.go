//go:build race

package wire

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool drops a random share of the buffers put back on purpose, so
// allocation budgets on pooled paths do not hold.
const raceEnabled = true
