//go:build race

package pruner

// raceEnabled: the race detector allocates on its own behalf, so allocation
// counts mean nothing under it.
const raceEnabled = true
