//go:build race

package sim

// raceEnabled reports a -race build, in which sync.Pool drops a random
// quarter of the objects put back, so closed sessions recycle only
// part of their machine.
const raceEnabled = true
