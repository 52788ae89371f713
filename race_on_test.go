//go:build race

package plinger

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is put back, so byte budgets that rely on pooled scratch
// do not hold.
const raceEnabled = true
