//go:build race

package data

// raceEnabled: the race detector allocates on its own behalf, so allocation
// counts mean nothing there.
const raceEnabled = true
