//go:build !race

package nn_test

const raceEnabled = false
