//go:build race

package api

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, so allocation counts mean nothing there.
const raceEnabled = true
