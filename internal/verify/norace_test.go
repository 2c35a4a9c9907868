//go:build !race

package verify

// raceEnabled reports a build with the race detector, whose
// instrumentation changes allocation counts, so they are not the
// program's.
const raceEnabled = false
