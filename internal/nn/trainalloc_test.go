package nn_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
)

// TestTrainBatchSteadyStateAllocs locks the training workspace into tier-1:
// from the second step on, a TrainBatch on the repository benchmark's
// fixture shapes (width-2 models, 16×3×8×8) allocates nothing — every
// output, input gradient, masked weight, reshaped header and scratch buffer
// is the layers' own, and so is the loss gradient. Measured: 0 objects /
// 0 KB on both families. While what flows between layers was made afresh
// each step it was 363 / 14 440 KB on resnet-s and 450 / 1 301 KB on
// transformer-s, and before the per-layer scratch was recycled 567 /
// 48.6 MB and 856 / 1.58 MB. The bounds leave room for a kernel job record
// rebuilt after a GC empties its pool, not for anything per layer.
func TestTrainBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		family    models.Family
		maxAllocs float64
		maxKB     float64
	}{
		{models.ResNet, 2, 4},      // measured 0, 0 KB
		{models.Transformer, 2, 4}, // measured 0, 0 KB
	} {
		t.Run(string(tc.family), func(t *testing.T) {
			clf := models.Build(tc.family, rand.New(rand.NewSource(1)), 10, 2)
			rng := rand.New(rand.NewSource(2))
			x := tensor.Randn(rng, 1, 16, 3, 8, 8)
			labels := make([]int, 16)
			for i := range labels {
				labels[i] = rng.Intn(10)
			}
			clf.TrainBatch(x, labels) // the first step builds the workspace

			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() { clf.TrainBatch(x, labels) })
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one warm-up call before its measured runs.
			kb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024
			t.Logf("%.0f allocations, %.0f KB per step", allocs, kb)
			if allocs > tc.maxAllocs {
				t.Errorf("%.0f allocations per steady-state TrainBatch, want <= %.0f", allocs, tc.maxAllocs)
			}
			if kb > tc.maxKB {
				t.Errorf("%.0f KB allocated per steady-state TrainBatch, want <= %.0f", kb, tc.maxKB)
			}
		})
	}
}
