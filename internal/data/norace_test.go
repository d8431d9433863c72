//go:build !race

package data

const raceEnabled = false
