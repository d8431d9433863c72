package serve

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
)

// TestPersonalizationPinsNoTrainingState: a cached personalization holds a
// model clone that was just pruned and fine-tuned. None of that run's
// workspace or backprop caches may ride into the cache with it — the hot
// tier's byte budget does not count them.
func TestPersonalizationPinsNoTrainingState(t *testing.T) {
	s := newTestServer(t, quickOpts())
	for _, classes := range [][]int{{1, 3}, {0, 2, 5}, {4}} {
		if _, _, err := s.Personalize(classes); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lru.Len() != 3 {
		t.Fatalf("%d cached personalizations, want 3", s.lru.Len())
	}
	for el := s.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*Personalization)
		if n := nn.TrainingStateBytes(p.clf); n != 0 {
			t.Errorf("tenant %s pins %d bytes of training state", p.Key, n)
		}
	}
}

// modelBytes is clf's checkpoint stream: every weight's bits, every mask
// and every batch-norm running statistic.
func modelBytes(t *testing.T, clf *nn.Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, clf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReleasedClassifierTrainsBitIdentically: releasing training state is
// invisible to the next training run. A clone that was pruned (and so
// released), reset from the base with CloneWeightsTo and pruned again must
// land on the same bits as a clone pruned once from fresh.
func TestReleasedClassifierTrainsBitIdentically(t *testing.T) {
	env := sharedEnv()
	opts := quickOpts().Prune
	split := env.ds.MakeSplit("leak-train/1,3", []int{1, 3}, 6)

	fresh := env.build()
	env.base.CloneWeightsTo(fresh)
	pruner.NewCRISP(opts).Prune(fresh, split)

	reused := env.build()
	env.base.CloneWeightsTo(reused)
	pruner.NewCRISP(opts).Prune(reused, env.ds.MakeSplit("leak-train/0,2,5", []int{0, 2, 5}, 6))
	if n := nn.TrainingStateBytes(reused); n != 0 {
		t.Fatalf("pruned classifier pins %d bytes of training state", n)
	}
	env.base.CloneWeightsTo(reused)
	pruner.NewCRISP(opts).Prune(reused, split)

	if !bytes.Equal(modelBytes(t, fresh), modelBytes(t, reused)) {
		t.Fatal("a released, reset and re-pruned classifier differs from one pruned from fresh")
	}
}

// liveHeap is the heap in use once garbage is collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHotBytesMatchesLiveHeap holds the hot tier's byte accounting to what
// a hot tenant really pins: on the repository benchmark's fixture shapes,
// twelve personalizations grow the live heap by no more than 15 % over what
// Stats().HotBytes charges for them. Before training state was released a
// resnet-s tenant pinned 13.98 MB against 4.30 MB charged.
func TestHotBytesMatchesLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale personalizations (short mode)")
	}
	for _, f := range []models.Family{models.ResNet, models.Transformer} {
		t.Run(string(f), func(t *testing.T) {
			cfg := data.Config{Name: "bench", NumClasses: 10, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 20240607}
			ds := data.New(cfg)
			build := func() *nn.Classifier {
				return models.Build(f, rand.New(rand.NewSource(20240608)), cfg.NumClasses, 2)
			}
			base := build()
			all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
			pruner.Finetune(base, ds.MakeSplit("pretrain", all, 8), 2, 16, nn.NewSGD(0.05, 0.9, 4e-5), rand.New(rand.NewSource(20240609)))
			base.ReleaseTrainingState()
			s, err := NewServer(build, base, ds, Options{
				Prune:         pruner.Options{Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, Iterations: 1, FinetuneEpochs: 1, BatchSize: 16},
				TrainPerClass: 8, TestPerClass: 8, MaxBatch: 16, CacheSize: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			before := liveHeap()
			const tenants = 12
			for i := 0; i < tenants; i++ {
				if _, _, err := s.Personalize([]int{i % 10, (i + 1 + i/10) % 10, (i + 3 + i/10) % 10}); err != nil {
					t.Fatal(err)
				}
			}
			grown := float64(liveHeap() - before)
			charged := float64(s.Stats().HotBytes)
			t.Logf("live heap per hot tenant %.2f MB, HotBytes per tenant %.2f MB", grown/tenants/1e6, charged/tenants/1e6)
			if grown > 1.15*charged {
				t.Errorf("%d hot tenants grew the live heap by %.0f bytes, %.0f%% more than the %.0f bytes HotBytes charges",
					tenants, grown, 100*(grown/charged-1), charged)
			}
		})
	}
}
