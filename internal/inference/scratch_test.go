package inference

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/pruner"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// benchTenant prunes one family at the repository benchmark's fixture shapes
// (width-2 models, ten 8×8 classes, 90 % target at 2:4 in 4×4 blocks) and
// returns its compile, at either precision, and sixteen single-sample inputs.
func benchTenant(t *testing.T, f models.Family) (func(Precision) *Engine, []*tensor.Tensor) {
	t.Helper()
	cfg := data.Config{Name: "bench", NumClasses: 10, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 20240607}
	ds := data.New(cfg)
	nm := sparsity.NM{N: 2, M: 4}
	tenant := models.Build(f, rand.New(rand.NewSource(20240608)), cfg.NumClasses, 2)
	pruner.NewCRISP(pruner.Options{Target: 0.9, NM: nm, BlockSize: 4, Iterations: 1, FinetuneEpochs: 1, BatchSize: 16}).
		Prune(tenant, ds.MakeSplit("user", []int{0, 1, 3}, 8))
	x := ds.MakeSplit("test", []int{0, 1, 3}, 6).X
	ch, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
	xs := make([]*tensor.Tensor, 16)
	for i := range xs {
		xs[i] = tensor.FromSlice(x.Data[i*ch*h*w:(i+1)*ch*h*w], 1, ch, h, w)
	}
	compile := func(prec Precision) *Engine {
		eng, err := NewWithOptions(tenant, 4, nm, CompileOptions{Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	return compile, xs
}

// passScratch is what one pass draws from its arena — float words, uint64
// words and tensor headers — and the bytes a fresh engine's first such pass
// allocates.
type passScratch struct {
	f64, u64, hdrs int
	firstBytes     uint64
}

// TestPassScratchPinned pins, at the benchmark's fixture shapes, what one
// PredictBatch of 1, 3 and 16 single samples draws from its arena — the most
// float words held at once, the most uint64 words, the tensor headers — and
// bounds what a fresh engine's first such pass allocates, on transformer-s
// and resnet-s at both precisions. The draws are exact: they are the plan a
// sizing walk makes and every pass is checked against. The first pass's
// bytes (TotalAlloc, averaged over four fresh engines; a few hundred bytes of
// noise) may exceed the recorded figure by 2 %.
//
// Before arenas were planned, a pass drew the sum of every buffer it took
// (floats / words / headers, first pass in bytes; b1, b3, b16):
//
//	transformer-s f32   7 572 / 0 / 66  536 522;  23 292 / 0 / 67  536 030;  124 224 / 0 / 67  1 060 458
//	transformer-s int8  7 614 / 1 428 / 66  1 060 790;  23 418 / 4 232 / 67  1 060 216;  124 896 / 22 432 / 67  1 584 870
//	resnet-s f32        174 932 / 0 / 57  1 579 264;  525 372 / 0 / 58  6 298 522;  1 319 232 / 0 / 78  11 026 062
//	resnet-s int8       67 110 / 85 108 / 47  2 103 656;  201 906 / 255 240 / 48  5 249 762;  1 076 832 / 1 361 056 / 48  23 799 418
//
// and its first pass grew the arena slab by slab from a 512 KB floor.
func TestPassScratchPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocated bytes are not meaningful under the race detector")
	}
	want := map[models.Family]map[Precision][3]passScratch{
		models.Transformer: {
			Float32: {{1184, 0, 58, 15_524}, {4128, 0, 59, 46_856}, {22_016, 0, 59, 186_634}},
			Int8:    {{1184, 320, 58, 18_296}, {4128, 960, 59, 55_016}, {22_016, 5120, 59, 227_216}},
		},
		models.ResNet: {
			Float32: {{26_624, 0, 56, 220_096}, {80_448, 0, 57, 654_216}, {166_948, 0, 77, 1_350_720}},
			Int8:    {{8256, 13_312, 46, 187_480}, {25_344, 39_936, 47, 531_304}, {135_168, 212_992, 47, 2_792_504}},
		},
	}
	for _, f := range []models.Family{models.Transformer, models.ResNet} {
		compile, xs := benchTenant(t, f)
		for _, prec := range []Precision{Float32, Int8} {
			for i, batch := range []int{1, 3, 16} {
				const engines = 4
				fresh := make([]*Engine, engines)
				for i := range fresh {
					fresh[i] = compile(prec)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for _, e := range fresh {
					e.PredictBatch(xs[:batch])
				}
				runtime.ReadMemStats(&after)
				got := passDraws(fresh[0], xs[:batch])
				got.firstBytes = (after.TotalAlloc - before.TotalAlloc) / engines
				w := want[f][prec][i]
				t.Logf("%s %s batch %d: %d floats, %d words, %d headers; first pass %d B", f, prec, batch, got.f64, got.u64, got.hdrs, got.firstBytes)
				if got.f64 != w.f64 || got.u64 != w.u64 || got.hdrs != w.hdrs {
					t.Errorf("%s %s batch %d: a pass draws %d floats, %d words and %d headers, pinned %d, %d and %d",
						f, prec, batch, got.f64, got.u64, got.hdrs, w.f64, w.u64, w.hdrs)
				}
				if float64(got.firstBytes) > 1.02*float64(w.firstBytes) {
					t.Errorf("%s %s batch %d: a fresh engine's first pass allocates %d B, recorded %d", f, prec, batch, got.firstBytes, w.firstBytes)
				}
			}
		}
	}
}

// passDraws is what one pass of e over xs draws: its plan, which every
// pass is checked against.
func passDraws(e *Engine, xs []*tensor.Tensor) passScratch {
	a := &arena{hdrs: make([]hdr, e.hdrs)}
	a.prepare(e.root, xs)
	return passScratch{f64: a.plan.f64, u64: a.plan.u64, hdrs: a.plan.hdrs}
}

// TestFreedScratchIsDead: with poisonFreed on, every range a pass frees reads
// NaN from then on, so a plan that freed a buffer before its last reader was
// done would change the logits. On four families at both precisions, batches
// of 1, 3, 4, 8 and 16 samples — stacked from single samples, and as one
// tensor — answer bit for bit as they do without poison, serially and from
// concurrent goroutines sharing each engine's pool.
func TestFreedScratchIsDead(t *testing.T) {
	if raceEnabled && testing.Short() {
		t.Skip("four prunes under the race detector: CI's scratch-liveness step runs it there without -short")
	}
	type pass struct {
		eng  *Engine
		xs   []*tensor.Tensor
		want *tensor.Tensor
	}
	var passes []pass
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		clf, x, nm, b := prunedModel(t, f)
		_, x16 := batches(t, x)
		per := x16.Len() / 16
		samples := make([]*tensor.Tensor, 16)
		for i := range samples {
			samples[i] = tensor.FromSlice(x16.Data[i*per:(i+1)*per], append([]int{1}, x16.Shape[1:]...)...)
		}
		for _, prec := range []Precision{Float32, Int8} {
			eng, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 3, 4, 8, 16} {
				whole := tensor.FromSlice(x16.Data[:n*per], append([]int{n}, x16.Shape[1:]...)...)
				for _, xs := range [][]*tensor.Tensor{samples[:n], {whole}} {
					passes = append(passes, pass{eng, xs, eng.LogitsBatch(xs)})
				}
			}
		}
	}
	poisonFreed = true
	defer func() { poisonFreed = false }()
	check := func(p pass) error {
		if got := p.eng.LogitsBatch(p.xs); !sameLogits(got, p.want) {
			return fmt.Errorf("%s engine, %d inputs of %v: logits moved once freed scratch was poisoned", p.eng.Precision(), len(p.xs), p.xs[0].Shape)
		}
		return nil
	}
	t.Run("serial", func(t *testing.T) {
		for _, p := range passes {
			if err := check(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		const goroutines = 4
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range passes {
					if err := check(passes[(i+g*7)%len(passes)]); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestPassMustDrawItsPlan: a pass that draws other than its arena's plan —
// more floats, fewer words, fewer headers — panics before it answers.
func TestPassMustDrawItsPlan(t *testing.T) {
	clf, x, nm, b := prunedModel(t, models.ResNet)
	x1, _ := batches(t, x)
	eng, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: Int8})
	if err != nil {
		t.Fatal(err)
	}
	xs := []*tensor.Tensor{x1}
	for _, c := range []struct {
		name   string
		tamper func(*scratch)
	}{
		{"floats short", func(s *scratch) { s.f64-- }},
		{"words short", func(s *scratch) { s.u64-- }},
		{"floats over", func(s *scratch) { s.f64++ }},
		{"headers over", func(s *scratch) { s.hdrs++ }},
	} {
		a := &arena{hdrs: make([]hdr, eng.hdrs)}
		a.prepare(eng.root, xs)
		c.tamper(&a.plan)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a pass against a tampered plan did not panic", c.name)
				}
			}()
			a.run(eng.root, xs)
			a.finish()
		}()
	}
}
