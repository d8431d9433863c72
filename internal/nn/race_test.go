//go:build race

package nn_test

// raceEnabled: the race detector allocates on its own behalf, so allocation
// counts mean nothing under it.
const raceEnabled = true
