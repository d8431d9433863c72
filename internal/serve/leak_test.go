package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"weak"

	"repro/internal/data"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
	"repro/internal/tensor"
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
// The server builds a classifier only to prune, and it is garbage once the
// prune returns, while the tenant it produced stays resident. A snapshot
// write, a cold restore and a warm promotion build none: however many times
// tenants cycle between the tiers, the build count stays at the prunes'.
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
	for _, classes := range sets {
		if _, _, err := s.Personalize(classes); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, _ := built.live(); n != 3 {
		t.Fatalf("%d classifiers built for 3 prunes + 3 snapshot writes, want the prunes' 3", n)
	}
	const promotions = 7 // each request is for the one warm tenant
	for i := 0; i < promotions; i++ {
		if _, _, err := s.Personalize(sets[i%len(sets)]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CachedEngines != 2 || st.WarmEntries != 1 || st.Promotions != promotions || st.SnapshotWrites != 3 || st.PromoteErrors != 0 {
		t.Fatalf("fixture did not prune, snapshot, demote and promote: %+v", st)
	}
	if n, live := built.live(); n != 3 || live != 0 {
		t.Errorf("%d classifiers built, %d still reachable, behind 2 hot and 1 warm tenant after %d promotions (want the 3 of 3 prunes, none from a snapshot write or a promotion, none live)", n, live, promotions)
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
	if n, _ := rebuilt.live(); n != 0 {
		t.Errorf("a cold restore built %d classifiers, want none", n)
	}
}

// modelBytes is every bit of clf: each parameter's weights and mask, then
// each batch-norm running statistic, in a fixed order.
func modelBytes(clf *nn.Classifier) []byte {
	var b []byte
	put := func(vs []float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, p := range clf.Params() {
		put(p.W.Data)
		if p.Mask != nil {
			b = append(b, 1)
			put(p.Mask.Data)
		} else {
			b = append(b, 0)
		}
	}
	nn.Walk(clf.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			put(bn.RunMean.Data)
			put(bn.RunVar.Data)
		}
	})
	return b
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

	if !bytes.Equal(modelBytes(fresh), modelBytes(reused)) {
		t.Fatal("a released, reset and re-pruned classifier differs from one pruned from fresh")
	}
}

// TestServerReleasesItsBaseTrainingState: a server never trains its base,
// so it does not pin the workspace the base's pre-training left behind —
// a caller need not release it by hand first.
func TestServerReleasesItsBaseTrainingState(t *testing.T) {
	env := sharedEnv()
	base := env.build()
	env.base.CloneWeightsTo(base)
	pruner.Finetune(base, env.ds.MakeSplit("pretrain", []int{0, 1}, 8), 1, 16, nn.NewSGD(0.05, 0.9, 4e-5), rand.New(rand.NewSource(1)))
	if nn.TrainingStateBytes(base) == 0 {
		t.Fatal("fixture: a fine-tuned base pins no training state")
	}
	s, err := NewServer(env.build, base, env.ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := nn.TrainingStateBytes(base); n != 0 {
		t.Errorf("NewServer left its base pinning %d bytes of training state", n)
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
// Stats().HotBytes charges for them, at either precision. A Float32
// resnet-s tenant holds no delta beside its engine and pins 0.19 MB against
// 0.18 MB charged (transformer-s 0.03 against 0.03); 0.21 against 0.20 with
// a uint16 column per kept weight; with the delta it pinned
// 0.39 MB against 0.37 MB (transformer-s 0.06 against 0.05, once its
// attention projections were plans and not dense D×D tensors), 13.98 MB
// against 4.30 MB charged before training state was released, 4.48 MB while
// the cache still held the pruned clone beside the engine, and 0.45 MB
// against 0.43 MB with int32 plan columns and conv tap tables.
// At int8 nothing float stays reachable behind a quantized layer: resnet-s
// 0.25 MB against 0.24 MB charged (0.27 against 0.26 with uint16 columns,
// 0.50 charged while every image kept the float plan it was quantized
// from), transformer-s 0.05 against 0.04. Over a store, once Flush has made
// them durable, Int8 resnet-s tenants hold no delta: 0.07 MB against
// 0.07 MB charged, 0.27× their charge while holding it (0.09 against 0.08
// and 0.31× with uint16 columns) — a drop that only un-charged the delta
// would leave the heap at 0.25.
func TestHotBytesMatchesLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale personalizations (short mode)")
	}
	const tenants = 12
	// grow personalizes the tenants on s — flushing them to its store when
	// it has one — and returns what they grew the live heap by and what
	// HotBytes charges for them.
	grow := func(t *testing.T, s *Server) (grown, charged float64) {
		before := liveHeap()
		for i := 0; i < tenants; i++ {
			if _, _, err := s.Personalize([]int{i % 10, (i + 1 + i/10) % 10, (i + 3 + i/10) % 10}); err != nil {
				t.Fatal(err)
			}
		}
		if s.store != nil {
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		grown, charged = float64(liveHeap()-before), float64(s.Stats().HotBytes)
		t.Logf("live heap per hot tenant %.2f MB, HotBytes per tenant %.2f MB", grown/tenants/1e6, charged/tenants/1e6)
		if grown > 1.15*charged {
			t.Errorf("%d hot tenants grew the live heap by %.0f bytes, %.0f%% more than the %.0f bytes HotBytes charges",
				tenants, grown, 100*(grown/charged-1), charged)
		}
		return grown, charged
	}
	for _, prec := range []inference.Precision{inference.Float32, inference.Int8} {
		for _, f := range []models.Family{models.ResNet, models.Transformer} {
			name := string(f)
			if prec == inference.Int8 {
				name += "-int8"
			}
			t.Run(name, func(t *testing.T) {
				grow(t, benchShapeServer(t, f, Options{CacheSize: 32, Precision: prec}))
			})
		}
	}
	// Over a store, a flushed Int8 tenant is durable and drops its delta:
	// the heap must show the delta gone, not just un-charged, and the tenant
	// is charged at most 0.35× what it is charged holding the delta, as a
	// budgeted server without a store keeps it.
	t.Run("resnet-s-int8-store", func(t *testing.T) {
		s := benchShapeServer(t, models.ResNet, Options{CacheSize: 32, Precision: inference.Int8, SnapshotDir: t.TempDir()})
		_, charged := grow(t, s)
		s.mu.Lock()
		hot := make([]*Personalization, 0, len(s.entries))
		for _, el := range s.entries {
			hot = append(hot, el.Value.(*Personalization))
		}
		s.mu.Unlock()
		holding := charged
		for _, p := range hot {
			delta, err := s.deltaOf(p)
			if err != nil {
				t.Fatal(err)
			}
			holding += float64(len(delta))
		}
		t.Logf("HotBytes per durable tenant %.0f B, %.0f B holding its delta (%.2f×)", charged/tenants, holding/tenants, charged/holding)
		if len(hot) != tenants || charged > 0.35*holding {
			t.Errorf("%d durable Int8 tenants charged %.0f bytes, want at most 0.35× the %.0f they are charged holding their deltas", len(hot), charged, holding)
		}
	})
}

// TestServedHeapBesideHotBytes is TestHotBytesMatchesLiveHeap once the
// tenants have served: twelve personalizations at the benchmark's fixture
// shapes, then one batch-16 predict each, and the live heap read after a
// single collection, which leaves each engine's pooled arena in place (a
// second would empty the pools; none runs in between). HotBytes charges no
// scratch yet, so what the served heap holds beyond the unserved one — each
// tenant's parked arena — is reported beside the charge, not gated.
// Measured per tenant: resnet-s 1.33 MB float and 2.77 MB int8,
// transformer-s 0.16 and 0.20 MB, beside HotBytes of 0.18, 0.24, 0.03 and
// 0.04 MB; 11.0, 29.2, 1.06 and 2.00 MB while an arena summed a pass's
// buffers from a 512 KB slab floor.
func TestServedHeapBesideHotBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale personalizations (short mode)")
	}
	const tenants = 12
	x := tensor.Randn(rand.New(rand.NewSource(5)), 1, 16, 3, 8, 8)
	for _, prec := range []inference.Precision{inference.Float32, inference.Int8} {
		for _, f := range []models.Family{models.ResNet, models.Transformer} {
			t.Run(string(f)+"-"+prec.String(), func(t *testing.T) {
				s := benchShapeServer(t, f, Options{CacheSize: 32, Precision: prec})
				sets := make([][]int, tenants)
				before := liveHeap()
				for i := range sets {
					sets[i] = []int{i % 10, (i + 1 + i/10) % 10, (i + 3 + i/10) % 10}
					if _, _, err := s.Personalize(sets[i]); err != nil {
						t.Fatal(err)
					}
				}
				hot := liveHeap()
				// No collection between the predicts and the read: a second
				// one would empty the pools.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				for _, classes := range sets {
					if _, err := s.Predict(classes, x); err != nil {
						t.Fatal(err)
					}
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				per := func(n uint64) float64 { return float64(n) / tenants / 1e6 }
				t.Logf("per tenant: live heap %.3f MB unserved, %.3f MB served (scratch %.3f MB); HotBytes %.3f MB",
					per(hot-before), per(ms.HeapAlloc-before), per(ms.HeapAlloc-hot), per(uint64(s.Stats().HotBytes)))
			})
		}
	}
}

// benchShapeServer is a server at the repository benchmark's fixture shapes
// (bench/fixture.go: width-2 models, ten 8×8 classes, a 2-epoch pre-train,
// 90 % target at 2:4 in 4×4 blocks); tiers sets the cache bounds.
func benchShapeServer(t *testing.T, f models.Family, tiers Options) *Server {
	t.Helper()
	cfg := data.Config{Name: "bench", NumClasses: 10, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 20240607}
	ds := data.New(cfg)
	build := func() *nn.Classifier {
		return models.Build(f, rand.New(rand.NewSource(20240608)), cfg.NumClasses, 2)
	}
	base := build()
	pruner.Pretrain(base, ds, 2, 8, 20240609)
	tiers.Prune = pruner.Options{Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, Iterations: 1, FinetuneEpochs: 1, BatchSize: 16}
	tiers.TrainPerClass, tiers.TestPerClass, tiers.MaxBatch = 8, 8, 16
	s, err := NewServer(build, base, ds, tiers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestPromoteAllocsBudget bounds what one tier round trip allocates at the
// benchmark's fixture shapes. With one hot slot and two tenants, each
// request demotes the resident tenant — its Float32 engine gives back the
// delta the warm record holds (checkpoint.EncodeEngineDelta: one listing of
// the base, the record and a handful of objects) — and promotes the other
// straight from (base, delta) — no classifier is built. Measured per demote
// + promote pair: transformer-s 36 objects / 66 KB for 14 plans, resnet-s
// 41 / 398 KB for 11, now that Linear, TokenLinear and PatchEmbed run one
// executor type carved from one array (38 on transformer-s while each had
// its own), each plan is built straight from the kept weights the delta view
// walks out, with no dense W ⊙ Mask scratch (resnet-s 36 864 floats,
// 295 KB) and no CRISP encoder re-encoding each matrix (42 / 86 KB and
// 45 / 745 KB before). A tier transition allocates per tenant, not per
// layer: every executor, execSeq child list and conv kernel is carved from
// one array per type, the delta view holds its entries in two
// slices instead of two maps, and a demotion walks the engine with one
// visitor and writes the delta into the one buffer it returns. Before the
// promoted tenant and its batcher were one object, and the batcher held the
// engine rather than a bound PredictBatch method value, it was 44 and 47
// objects. It was 75 / 96 KB and 121 / 780 KB
// while each executor was its own object and only plans and vectors came
// from exactly sized slabs (one vector slab; one []Plan and one RowPtr, Col
// and Val array), every matrix decoded into one dense scratch. Before that,
// every plan was four objects, every vector its own, and every matrix a fresh
// dense W ⊙ Mask (three objects, and most of the bytes): 217 / 231 KB and
// 274 / 1.86 MB. Deriving the delta added its bytes (226 / 199 KB and
// 289 / 1.66 MB while the hot tenant held the delta and demotion parked it),
// and listing a model's parameters into one exactly sized slice, instead of
// one per layer, took more objects off the promotion's view and the
// derivation than the derivation adds (83 and 131 objects while that slice
// grew as it filled). Earlier: transformer-s 203 KB with int32 plan columns,
// 245 / 204 KB while every promote interned its plans in a cross-tenant
// registry, 256 / 211 KB when it compiled 6 and kept attention's eight
// projections dense, 792 / 692 KB when promotion built and filled a clone;
// resnet-s 299 / 1.73 MB with int32 columns and a tap table per conv, 315 /
// 1.73 MB, 400 / 1.95 MB, 1 326 / 6.45 MB. The budgets are the measurement
// plus about 15 % and admit neither a clone — a build alone is 307
// objects / 315 KB on transformer-s and 417 / 2.75 MB on resnet-s — nor
// anything per matrix beyond what the slabs hold: a dense W ⊙ Mask per
// matrix adds 42 and 33 objects, and a plan allocated on its own 56 and 44.
func TestPromoteAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("full-scale personalizations (short mode)")
	}
	for _, c := range []struct {
		family         models.Family
		objects, bytes float64
	}{{models.Transformer, 41, 76e3}, {models.ResNet, 47, 0.46e6}} {
		t.Run(string(c.family), func(t *testing.T) {
			s := benchShapeServer(t, c.family, Options{CacheSize: 1, MemoryBudgetBytes: 1 << 40})
			sets := [][]int{{0, 1, 3}, {2, 5, 8}}
			swap := func(i int) {
				if _, hit, err := s.Personalize(sets[i%2]); err != nil || hit {
					t.Fatalf("Personalize(%v): hit %v, err %v", sets[i%2], hit, err)
				}
			}
			swap(0)
			swap(1)
			swap(0) // first promotion: warms the pools
			const pairs = 20
			i := 1
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			objects := testing.AllocsPerRun(pairs, func() { swap(i); i++ })
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (pairs + 1)
			if st := s.Stats(); st.Personalizations != 2 || st.Promotions != pairs+2 || st.Demotions != pairs+3 || st.PromoteErrors != 0 {
				t.Fatalf("fixture did not swap two tenants through the warm tier: %+v", st)
			}
			t.Logf("%s: %.0f objects, %.0f KB per demote + promote pair", c.family, objects, bytes/1e3)
			if objects > c.objects || bytes > c.bytes {
				t.Errorf("%s: a demote + promote pair allocates %.0f objects / %.0f bytes, budget %.0f / %.0f", c.family, objects, bytes, c.objects, c.bytes)
			}
		})
	}
}
