//go:build !race

package pruner

const raceEnabled = false
