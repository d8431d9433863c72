//go:build !race

package sparsity

const raceEnabled = false
