package inference

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/format"
	"repro/internal/models"
	"repro/internal/pruner"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// TestFirstPassAllocsBudget bounds what an engine's PredictBatch allocates,
// at the repository benchmark's fixture shapes (width-2 models, ten 8×8
// classes, 90 % target at 2:4 in 4×4 blocks), first on a fresh engine and
// then in steady state.
//
// On a churning server every promotion is followed by a first pass (52 % of
// tenant_churn's predicts), and it builds the arena from nothing: slabs, and
// a header per tensor any executor draws. Measured at batch 1 / batch 16:
// transformer-s 14 / 19 objects (139 at batch 16 when every header was its
// own object with a heap-allocated shape), resnet-s 23 / 83 (238; at batch
// 16 its ten convs each build a clip table and fan out over the worker pool,
// and most activations outgrow a shared slab). The budgets are about twice
// the measurement; a header that allocates per tensor again does not fit.
//
// Every later pass of the same engine reuses that arena. Measured objects
// per pass at batch 1 / 16, Float32 and Int8: transformer-s 1 / 3 and
// 7 / 9, resnet-s 7 / 23 and 8 / 24 (the same at GOMAXPROCS 2 and 8; at 1
// nothing fans out over the worker pool and resnet-s needs fewer). The
// budgets are the measurement plus two: a batch concat that goes to the
// heap instead of the arena (five objects) does not fit.
func TestFirstPassAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := data.Config{Name: "bench", NumClasses: 10, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 20240607}
	ds := data.New(cfg)
	nm := sparsity.NM{N: 2, M: 4}
	for _, c := range []struct {
		family models.Family
		first  [2]float64    // a fresh Float32 engine's first pass, batch 1 / 16
		steady [2][2]float64 // every later pass: Float32, Int8 × batch 1, 16
	}{
		{models.Transformer, [2]float64{40, 40}, [2][2]float64{{3, 5}, {9, 11}}},
		{models.ResNet, [2]float64{40, 170}, [2][2]float64{{9, 25}, {10, 26}}},
	} {
		tenant := models.Build(c.family, rand.New(rand.NewSource(20240608)), cfg.NumClasses, 2)
		pruner.NewCRISP(pruner.Options{Target: 0.9, NM: nm, BlockSize: 4, Iterations: 1, FinetuneEpochs: 1, BatchSize: 16}).
			Prune(tenant, ds.MakeSplit("user", []int{0, 1, 3}, 8))
		x := ds.MakeSplit("test", []int{0, 1, 3}, 6).X
		ch, h, w := x.Shape[1], x.Shape[2], x.Shape[3]
		xs := make([]*tensor.Tensor, 16)
		for i := range xs {
			xs[i] = tensor.FromSlice(x.Data[i*ch*h*w:(i+1)*ch*h*w], 1, ch, h, w)
		}
		for bi, batch := range []int{1, 16} {
			const passes = 8
			engines := make([]*Engine, passes+1) // AllocsPerRun warms up with one call
			for i := range engines {
				eng, err := New(tenant, 4, nm)
				if err != nil {
					t.Fatal(err)
				}
				engines[i] = eng
			}
			i := 0
			objects := testing.AllocsPerRun(passes, func() { engines[i].PredictBatch(xs[:batch]); i++ })
			t.Logf("%s: %.0f objects in a fresh engine's first batch-%d pass", c.family, objects, batch)
			if objects > c.first[bi] {
				t.Errorf("%s: a fresh engine's first batch-%d pass allocates %.0f objects, budget %.0f", c.family, batch, objects, c.first[bi])
			}

			for pi, prec := range []Precision{Float32, Int8} {
				eng, err := NewWithOptions(tenant, 4, nm, CompileOptions{Precision: prec})
				if err != nil {
					t.Fatal(err)
				}
				// AllocsPerRun's warm-up call is the first pass.
				objects := testing.AllocsPerRun(100, func() { eng.PredictBatch(xs[:batch]) })
				t.Logf("%s %s: %.0f objects in a steady-state batch-%d pass", c.family, prec, objects, batch)
				if objects > c.steady[pi][bi] {
					t.Errorf("%s %s: a steady-state batch-%d pass allocates %.0f objects, budget %.0f", c.family, prec, batch, objects, c.steady[pi][bi])
				}
			}
		}
	}
}

// TestInt8EngineSmallerThanFloat: an int8 tenant holds int8. At the
// repository benchmark's fixture shapes an Int8 engine's footprint is below
// the Float32 engine's of the same tenant on every family — 5 bytes a kept
// weight against 12, and no conv tap tables. While each image kept the float
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

// TestCompiledPlansDoNotAliasTheEncoder: one CRISPFormat value encodes every
// parameter of a compile, so a plan that kept a view of it — instead of the
// copy Compile makes — would be rewritten by the next parameter. Compile two
// parameters back to back, then scribble over the encoder: the first plan
// holds what it held, and both still compute what plans compiled alone do.
func TestCompiledPlansDoNotAliasTheEncoder(t *testing.T) {
	_, clone, _, prune := tenantEnv(t, models.Transformer)
	tenant := clone()
	prune(tenant, []int{1, 5})
	nm := sparsity.NM{N: 2, M: 4}
	params := tenant.PrunableParams()[:2]

	e := &Engine{src: OwnParams{}}
	var plans, alone [2]*format.Plan
	plans[0] = e.newPlan(params[0], 4, nm)
	col, val, rowPtr := slices.Clone(plans[0].Col), slices.Clone(plans[0].Val), slices.Clone(plans[0].RowPtr)
	plans[1] = e.newPlan(params[1], 4, nm)
	if len(e.enc.Val) == 0 {
		t.Fatal("fixture: the second parameter did not go through the CRISP encoder")
	}
	for i := range e.enc.Val {
		e.enc.Val[i] = math.NaN()
	}
	clear(e.enc.Offsets)
	clear(e.enc.BlockCols)
	if !slices.Equal(plans[0].Col, col) || !slices.Equal(plans[0].Val, val) || !slices.Equal(plans[0].RowPtr, rowPtr) {
		t.Fatal("compiling a second parameter rewrote the first parameter's plan")
	}
	rng := rand.New(rand.NewSource(3))
	for i, p := range params {
		enc, err := format.EncodeCRISP(OwnParams{}.Effective(p), 4, nm)
		if err != nil {
			t.Fatalf("fixture: %s is not hybrid: %v", p.Name, err)
		}
		alone[i] = enc.Compile()
		if plans[i].Fingerprint() != alone[i].Fingerprint() {
			t.Fatalf("%s: plan from the shared encoder differs from one encoded alone", p.Name)
		}
		x := tensor.Randn(rng, 1, p.Cols, 5)
		if !sameLogits(plans[i].MatMul(x), alone[i].MatMul(x)) {
			t.Fatalf("%s: plan from the shared encoder computes differently once the encoder is overwritten", p.Name)
		}
	}
}
