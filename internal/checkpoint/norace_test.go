//go:build !race

package checkpoint

const raceEnabled = false
