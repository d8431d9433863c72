//go:build !race

package format

const raceEnabled = false
