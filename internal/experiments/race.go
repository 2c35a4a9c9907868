//go:build race

package experiments

// raceEnabled reports a build with the race detector, whose slowdown
// makes wall-clock comparisons between runs meaningless.
const raceEnabled = true
