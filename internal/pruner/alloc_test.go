package pruner

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparsity"
)

// pruneObjects reports the objects one CRISP prune allocates at the
// repository benchmark's fixture shapes — a width-2 model pre-trained for
// two epochs, a 24-sample user split (batches of 16 and 8), 2:4 in 4×4
// blocks at target 0.9 over one round — with epochs fine-tuning epochs per
// round and after the last. Each run prunes a fresh clone of the base, as
// a server's personalization does. The collector is off while it counts:
// a GC empties the sync.Pools the kernels keep their job records in, and
// a resnet-s prune (56 MB) would otherwise run through several and count
// their refills.
func pruneObjects(t *testing.T, f models.Family, epochs int) float64 {
	t.Helper()
	cfg := data.Config{Name: "bench", NumClasses: 10, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 20240607}
	ds := data.New(cfg)
	build := func() *nn.Classifier {
		return models.Build(f, rand.New(rand.NewSource(20240608)), cfg.NumClasses, 2)
	}
	base := build()
	Pretrain(base, ds, 2, 8, 20240609)
	split := ds.MakeSplit("serve-train/0,1,3", []int{0, 1, 3}, 8)
	opts := Options{Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, Iterations: 1, FinetuneEpochs: epochs, BatchSize: 16}
	const runs = 2
	clones := make([]*nn.Classifier, runs+1) // AllocsPerRun adds a warm-up run
	for i := range clones {
		clones[i] = build()
		base.CloneWeightsTo(clones[i])
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	i := 0
	return testing.AllocsPerRun(runs, func() {
		NewCRISP(opts).Prune(clones[i], split)
		i++
	})
}

// TestPruneAllocsDoNotFollowSteps: a prune allocates per model, not per
// training step. Its first TrainBatch builds the classifier's training
// workspace and every later step reuses it, so a prune that fine-tunes for
// three epochs a round instead of one — 12 TrainBatch steps instead of 4,
// plus the 2 of the saliency pass — allocates one object more per extra
// epoch: data.Batches' permutation of the split. Give or take two, for a
// kernel job record a goroutine that moved to another P does not find in
// its pool; anything a step allocated would add eight times over.
// Measured at the benchmark's fixture shapes, at one / three epochs:
// resnet-s 619 / 623 objects, transformer-s 616 / 620, now that ranking a
// layer's block columns (sparsity.RankColumns) allocates three objects, not
// one order, one sort and one BlockCols slice per block row or rank
// (1 788 / 1 792 and 1 102 / 1 106 before). While every step made its
// outputs, input gradients and masked weights afresh it was 3 912 / 6 872
// and 3 306 / 6 367.
func TestPruneAllocsDoNotFollowSteps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("full-scale prune+fine-tune path (short mode)")
	}
	for _, tc := range []struct {
		family models.Family
		budget float64 // objects at one epoch
	}{
		{models.ResNet, 720},
		{models.Transformer, 710},
	} {
		t.Run(string(tc.family), func(t *testing.T) {
			one, three := pruneObjects(t, tc.family, 1), pruneObjects(t, tc.family, 3)
			t.Logf("%.0f objects per prune at one fine-tuning epoch a round, %.0f at three", one, three)
			// Two more epochs in the round and two more in the recovery
			// fine-tune: four more permutations.
			if extra := three - one; extra < 2 || extra > 6 {
				t.Errorf("three epochs a round allocate %.0f objects more than one, want 4 ± 2 (one permutation per extra epoch)", extra)
			}
			if one > tc.budget {
				t.Errorf("a prune allocates %.0f objects, budget %.0f", one, tc.budget)
			}
		})
	}
}
