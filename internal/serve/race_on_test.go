//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is put back, so allocation counts that rely on pooled
// encoder state do not hold.
const raceEnabled = true
