//go:build !race

package inference

const raceEnabled = false
