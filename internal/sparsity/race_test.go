//go:build race

package sparsity

// raceEnabled: the race detector allocates on its own behalf, so allocation
// counts mean nothing there.
const raceEnabled = true
