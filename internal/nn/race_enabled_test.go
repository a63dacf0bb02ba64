//go:build race

package nn

// raceEnabled reports that the race detector is active: sync.Pool
// deliberately drops items under race instrumentation, so pooled-path
// zero-allocation assertions are skipped.
const raceEnabled = true
