package inference

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/format"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// TestFirstPassAllocsBudget bounds what an engine's PredictBatch allocates,
// at the repository benchmark's fixture shapes (width-2 models, ten 8×8
// classes, 90 % target at 2:4 in 4×4 blocks), first on a fresh engine, then
// once its arena pool has been emptied, and in steady state.
//
// On a churning server every promotion is followed by a first pass (52 % of
// tenant_churn's predicts). A fresh engine's first pass now costs what a pass
// with an emptied pool costs: its arena is planned by a sizing walk that
// allocates nothing, then made in one step at the plan's size — the arena,
// its header slab, its float slab (and word slab at Int8) —, beside the
// pool's re-registration and the answer; resnet-s at batch 16 also rebuilds
// a kernel job record its emptied pool dropped. Measured at batch 1 / 16:
// transformer-s 5 / 5 objects either way, resnet-s 5 / 5 fresh and 5 / 6
// emptied. Both budgets are the emptied-pool measurement. While the arena
// grew slab by slab from a 512 KB floor, a fresh engine's first pass was
// transformer-s 11 / 13 and resnet-s 13 / 58 objects (its ten convs each
// cached a clip table, now drawn as scratch), and an emptied pool's 6 / 6
// and 6 / 7, sized from the most any earlier pass had drawn (15 / 17 and
// 17 / 42 before that).
//
// Every later pass of the same engine reuses that arena, and a kernel
// fan-out draws its job record from a pool, so a pass allocates only its
// answer: 1 object, at batch 1 and 16, Float32 and Int8, on both families.
// It was transformer-s 1 / 3 and 7 / 9, resnet-s 7 / 23 and 8 / 24 while
// every fan-out allocated a closure and a join counter and a batch concat
// built its result shape. The budget is the measurement.
func TestFirstPassAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const steady = 1 // every later pass: its []int answer
	for _, c := range []struct {
		family  models.Family
		emptied [2]float64 // a pass once the pool is emptied, batch 1 / 16
	}{
		{models.Transformer, [2]float64{5, 5}},
		{models.ResNet, [2]float64{5, 6}},
	} {
		compile, xs := benchTenant(t, c.family)
		for bi, batch := range []int{1, 16} {
			const passes = 8
			engines := make([]*Engine, passes+1) // AllocsPerRun warms up with one call
			for i := range engines {
				engines[i] = compile(Float32)
			}
			i := 0
			first := testing.AllocsPerRun(passes, func() { engines[i].PredictBatch(xs[:batch]); i++ })
			// Two collections empty every engine's pool; each builds its
			// next arena at the plan of the pass it serves.
			runtime.GC()
			runtime.GC()
			i = 0
			emptied := testing.AllocsPerRun(passes, func() { engines[i].PredictBatch(xs[:batch]); i++ })
			t.Logf("%s: %.0f objects in a fresh engine's first batch-%d pass, %.0f once the pool is emptied", c.family, first, batch, emptied)
			if emptied > c.emptied[bi] || first > c.emptied[bi] {
				t.Errorf("%s: a batch-%d pass allocates %.0f objects on a fresh engine and %.0f once its pool is emptied, budget %.0f for either",
					c.family, batch, first, emptied, c.emptied[bi])
			}

			for _, prec := range []Precision{Float32, Int8} {
				eng := compile(prec)
				// AllocsPerRun's warm-up call is the first pass.
				objects := testing.AllocsPerRun(100, func() { eng.PredictBatch(xs[:batch]) })
				t.Logf("%s %s: %.0f objects in a steady-state batch-%d pass", c.family, prec, objects, batch)
				if objects > steady {
					t.Errorf("%s %s: a steady-state batch-%d pass allocates %.0f objects, budget %d", c.family, prec, batch, objects, steady)
				}
			}
		}
	}
}

// TestCompileAllocsDoNotFollowDepth: a compile allocates per tenant, not per
// layer. Two models that differ only in depth — 4 and 16 residual blocks of
// Linear, LayerNorm and ReLU — compile from a delta view, at both precisions,
// with the same number of objects: every executor and child list, plan,
// image and vector is carved from a slab sized before the first is built,
// and the scratch plan an image is quantized from is made once, at its final
// size: 13 objects at Float32, 19 at Int8, at either depth (re-measured
// with Linear, TokenLinear and PatchEmbed on one executor type: this model's
// matrices are all Linear, so it carved one executor array before too).
// While every
// matrix also passed through a dense W ⊙ Mask scratch and a CRISP encoder
// it was 17 and 23; while each executor was its own object, each image
// seven, and the encoder grew as larger matrices came, 39 and 111 at
// Float32, 81 and 237 at Int8.
func TestCompileAllocsDoNotFollowDepth(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const d, classes = 16, 8
	build := func(blocks int) *nn.Classifier {
		rng := rand.New(rand.NewSource(5))
		layers := []nn.Layer{&nn.Flatten{}, nn.NewLinear("in", rng, 3*4*4, d, true)}
		for i := range blocks {
			layers = append(layers, nn.NewResidual(nn.NewSequential(
				nn.NewLinear(fmt.Sprintf("b%d.fc", i), rng, d, d, true),
				nn.NewLayerNorm(fmt.Sprintf("b%d.ln", i), d),
				nn.NewReLU(),
			), nil))
		}
		layers = append(layers, nn.NewLinear("head", rng, d, classes, true))
		return nn.NewClassifier("mlp", nn.NewSequential(layers...), classes)
	}
	var counts [2][2]float64
	for i, blocks := range []int{4, 16} {
		base, tenant := build(blocks), build(blocks)
		// A hybrid mask: every block row keeps the even 4×4 block columns,
		// and the first two of every group of four inside them.
		for _, p := range tenant.PrunableParams() {
			m := p.EnsureMask()
			for j := range m.Data {
				m.Data[j] = 0
				if c := j % p.Cols; c/4%2 == 0 && c%4 < 2 {
					m.Data[j] = 1
				}
			}
		}
		delta, err := checkpoint.EncodeModelDelta(base, tenant)
		if err != nil {
			t.Fatal(err)
		}
		view, err := checkpoint.ViewModelDelta(delta, base)
		if err != nil {
			t.Fatal(err)
		}
		for j, prec := range []Precision{Float32, Int8} {
			opts := CompileOptions{Precision: prec}
			eng, err := NewFromSource(base, view, opts)
			if err != nil {
				t.Fatal(err)
			}
			if eng.CompressedLayers != blocks+2 {
				t.Fatalf("%d blocks at %s: %d compressed layers", blocks, prec, eng.CompressedLayers)
			}
			counts[j][i] = testing.AllocsPerRun(10, func() {
				if _, err := NewFromSource(base, view, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	for j, prec := range []Precision{Float32, Int8} {
		t.Logf("%s: %.0f objects to compile 4 blocks, %.0f to compile 16", prec, counts[j][0], counts[j][1])
		if counts[j][0] != counts[j][1] {
			t.Errorf("%s: a compile of 4 blocks allocates %.0f objects, of 16 blocks %.0f", prec, counts[j][0], counts[j][1])
		}
	}
}

// TestInt8EngineSmallerThanFloat: an int8 tenant holds int8. At the
// repository benchmark's fixture shapes an Int8 engine's footprint is below
// the Float32 engine's of the same tenant on every family — 3 bytes a kept
// weight against 10, and no conv clip tables. While each image kept the float
// plan it was quantized from it was the larger one (resnet-s: 324 KB against
// 256 KB).
func TestInt8EngineSmallerThanFloat(t *testing.T) {
	if raceEnabled {
		t.Skip("four full-scale prunes; the byte counts are the same with or without the race detector")
	}
	cfg := data.Config{Name: "bench", NumClasses: 10, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 20240607}
	ds := data.New(cfg)
	nm := sparsity.NM{N: 2, M: 4}
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		tenant := models.Build(f, rand.New(rand.NewSource(20240608)), cfg.NumClasses, 2)
		pruner.NewCRISP(pruner.Options{Target: 0.9, NM: nm, BlockSize: 4, Iterations: 1, FinetuneEpochs: 1, BatchSize: 16}).
			Prune(tenant, ds.MakeSplit("user", []int{0, 1, 3}, 8))
		var bytes [2]int64
		for i, prec := range []Precision{Float32, Int8} {
			eng, err := NewWithOptions(tenant, 4, nm, CompileOptions{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			bytes[i] = eng.MemoryFootprint()
		}
		t.Logf("%s: float32 %d bytes, int8 %d", f, bytes[0], bytes[1])
		if bytes[1] >= bytes[0] {
			t.Errorf("%s: the int8 engine holds %d bytes, the float32 engine of the same tenant %d", f, bytes[1], bytes[0])
		}
	}
}

// TestCompiledPlansDoNotAliasTheScratch: at Int8 one scratch plan holds the
// float plan each image is quantized from, so an image that kept a view of
// it, instead of the copy it makes, would be rewritten by the next matrix.
// Compile a tenant at both precisions, then scribble over the scratch: the
// engine's Fingerprint (Float32) and QuantSignature (Int8), recomputed over
// what it holds now, still equal the values folded in as each plan was
// built, and its logits do not move. The scratch plan is scribbled by
// rebuilding it for every quantized matrix, which reaches all the memory
// the compile carved it from.
func TestCompiledPlansDoNotAliasTheScratch(t *testing.T) {
	_, clone, x, prune := tenantEnv(t, models.Transformer)
	tenant := clone()
	prune(tenant, []int{1, 5})
	x1, x16 := batches(t, x)
	for _, prec := range []Precision{Float32, Int8} {
		c := compiler{src: OwnParams{}}
		eng, err := c.engine(tenant, prec)
		if err != nil {
			t.Fatal(err)
		}
		want := [2]*tensor.Tensor{eng.Logits(x1), eng.Logits(x16)}

		c.e = &Engine{} // re-carving folds into c.e: keep it off eng
		quantized := 0
		takes(tenant.Net, prec, func(p *nn.Param, kept bool) {
			if kept {
				return
			}
			plan, err := c.scratchPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range plan.Val {
				plan.Val[i], plan.Col[i] = math.NaN(), math.MaxUint16
			}
			for i := range plan.RowPtr {
				plan.RowPtr[i] = -1
			}
			quantized++
		}, func(int) {})
		if (quantized > 0) != (prec == Int8) {
			t.Fatalf("%s: fixture rebuilt %d scratch plans", prec, quantized)
		}

		fp, qsig := format.HashInit, format.Hash64(0)
		if prec == Int8 {
			qsig = format.HashInit
		}
		for _, m := range resident(eng) {
			if m.quant != nil {
				qsig = m.quant.Hash(qsig)
			} else {
				fp = fp.Uint64(m.plan.Fingerprint())
			}
		}
		if uint64(qsig) != eng.QuantSignature() {
			t.Fatalf("%s: the images hash to %016x once the scratch is overwritten, %016x when compiled", prec, qsig, eng.QuantSignature())
		}
		if prec == Float32 && uint64(fp) != eng.Fingerprint() {
			t.Fatalf("the plans hash to %016x once the scratch is overwritten, %016x when compiled", fp, eng.Fingerprint())
		}
		if !sameLogits(eng.Logits(x1), want[0]) || !sameLogits(eng.Logits(x16), want[1]) {
			t.Fatalf("%s: logits changed once the compile's scratch was overwritten", prec)
		}
	}
}
