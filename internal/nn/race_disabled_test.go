//go:build !race

package nn

// raceEnabled reports whether the race detector is active (see the race
// build-tagged counterpart).
const raceEnabled = false
