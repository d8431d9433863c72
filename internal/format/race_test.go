//go:build race

package format

// raceEnabled: the race detector allocates on its own behalf, so allocation
// counts mean nothing there.
const raceEnabled = true
