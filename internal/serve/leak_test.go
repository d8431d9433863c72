package serve

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
)

// builtClassifiers wraps env.build so a test can see what became of every
// classifier a server built: a weak pointer into the backing array of each
// one's largest weight tensor, which anything holding the classifier — or
// aliasing its weights — keeps alive.
type builtClassifiers struct {
	mu      sync.Mutex
	weights []weak.Pointer[float64]
}

func (b *builtClassifiers) build() *nn.Classifier {
	clf := sharedEnv().build()
	var largest *nn.Param
	for _, p := range clf.Params() {
		if largest == nil || p.W.Len() > largest.W.Len() {
			largest = p
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.weights = append(b.weights, weak.Make(&largest.W.Data[0]))
	return clf
}

// live counts the built classifiers whose weights survive a collection.
func (b *builtClassifiers) live() (built, live int) {
	runtime.GC()
	runtime.GC()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, w := range b.weights {
		if w.Value() != nil {
			live++
		}
	}
	return len(b.weights), live
}

// TestPersonalizationPinsNoTrainingState: the cache holds no classifier at
// all, so none of a pruning run's weights, gradients, workspace or backprop
// caches can ride into it — the hot tier's byte budget counts none of them.
// Every classifier the server builds (to prune, to promote a warm record, to
// write a snapshot, to restore a cold one) is garbage once its call returns,
// while the tenants it produced stay resident.
func TestPersonalizationPinsNoTrainingState(t *testing.T) {
	env := sharedEnv()
	opts, _ := snapshotOpts(t)
	opts.CacheSize = 2
	opts.MemoryBudgetBytes = 1 << 40
	var built builtClassifiers
	s, err := NewServer(built.build, env.base, env.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sets := [][]int{{1, 3}, {0, 2, 5}, {4}}
	for _, classes := range append(sets, sets[0]) { // the repeat promotes {1,3}
		if _, _, err := s.Personalize(classes); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CachedEngines != 2 || st.WarmEntries != 1 || st.Promotions != 1 || st.SnapshotWrites != 3 {
		t.Fatalf("fixture did not prune, snapshot, demote and promote: %+v", st)
	}
	if n, live := built.live(); n != 7 || live != 0 {
		t.Errorf("%d of %d built classifiers still reachable behind 2 hot and 1 warm tenant (want 3 prunes + 3 snapshot writes + 1 promotion, none live)", live, n)
	}

	var rebuilt builtClassifiers
	s2, err := NewServer(rebuilt.build, env.base, env.ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, err := s2.Personalize(sets[2]); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.RestoreHits != 1 || st.Personalizations != 0 {
		t.Fatalf("second server did not cold-restore: %+v", st)
	}
	if n, live := rebuilt.live(); n != 1 || live != 0 {
		t.Errorf("%d of %d classifiers still reachable behind a cold-restored tenant", live, n)
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
// Stats().HotBytes charges for them. A resnet-s tenant pins 0.57 MB against
// 0.54 MB charged (transformer-s 0.12 against 0.11); it pinned 13.98 MB
// against 4.30 MB charged before training state was released and 4.48 MB
// while the cache still held the pruned clone beside the engine. Without the
// conv tap tables in the footprint the charge would be 0.40 MB and the live
// heap 40 % over it.
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
