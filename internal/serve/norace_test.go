//go:build !race

package serve

// raceEnabled reports a build with the race detector, whose sync.Pool
// drops pooled items at random, so allocation counts are not the
// program's.
const raceEnabled = false
