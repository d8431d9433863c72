package inference

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// agreementFamilies is the golden accuracy-agreement table: for each model
// family, the minimum tolerated top-1 agreement between the Int8 and
// Float32 engines and the per-family logits max-abs-error bound. The bounds
// are the int8 analog of the float path's bit-identity suites — quantized
// execution cannot be exact, so the suite pins how inexact it is allowed to
// get. Bounds were calibrated against the synthetic datasets (observed
// worst: resnet 0.032, vgg 0.006, transformer 0.040) with ~4× headroom —
// everything here is deterministic, so a failure means the quantized
// kernels regressed, not noise.
var agreementFamilies = []struct {
	family    models.Family
	minAgree  float64 // top-1 agreement vs the Float32 engine
	maxLogitE float64 // worst absolute logit deviation
}{
	{models.ResNet, 0.95, 0.15},
	{models.VGG, 0.95, 0.03},
	{models.Transformer, 0.95, 0.15},
}

// agreementBatch draws a large held-out batch of the pruned classes from
// the same synthetic dataset prunedModel trains on: 64 samples make the
// 95% agreement floor statistically meaningful (at 8 samples a single
// near-tie flip would read as 12.5% disagreement).
func agreementBatch() *tensor.Tensor {
	cfg := data.Config{Name: "inf", NumClasses: 8, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 7}
	return data.New(cfg).MakeSplit("agree", []int{1, 5}, 32).X
}

// TestInt8EngineAgreementGolden runs both engines over a held-out batch per
// family and asserts the quantized engine agrees with the float engine on
// ≥95% of top-1 predictions, with every logit inside the family's bound.
func TestInt8EngineAgreementGolden(t *testing.T) {
	x := agreementBatch()
	for _, tc := range agreementFamilies {
		clf, _, nm, b := prunedModel(t, tc.family)
		ref, err := New(clf, b, nm)
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		q8, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: Int8})
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if q8.Precision() != Int8 || ref.Precision() != Float32 {
			t.Fatalf("%s: precisions %v/%v", tc.family, q8.Precision(), ref.Precision())
		}
		if q8.CompressedLayers != ref.CompressedLayers {
			t.Fatalf("%s: int8 engine compressed %d layers, float %d",
				tc.family, q8.CompressedLayers, ref.CompressedLayers)
		}

		want := ref.Logits(x)
		got := q8.Logits(x)
		worst := 0.0
		for i := range want.Data {
			if e := math.Abs(got.Data[i] - want.Data[i]); e > worst {
				worst = e
			}
		}
		if worst > tc.maxLogitE {
			t.Fatalf("%s: logits max-abs-error %v exceeds family bound %v", tc.family, worst, tc.maxLogitE)
		}

		refPred := ref.Predict(x)
		q8Pred := q8.Predict(x)
		agree := 0
		for i := range refPred {
			if refPred[i] == q8Pred[i] {
				agree++
			}
		}
		frac := float64(agree) / float64(len(refPred))
		t.Logf("%s: top-1 agreement %d/%d (%.1f%%), worst logit error %v",
			tc.family, agree, len(refPred), 100*frac, worst)
		if frac < tc.minAgree {
			t.Fatalf("%s: top-1 agreement %.3f below the %.2f floor", tc.family, frac, tc.minAgree)
		}
	}
}

// TestInt8EngineAccuracyClose: on a lightly trained dense model, serving at
// int8 must not change held-out accuracy materially. The float engine is
// the baseline, and it scores exactly the classifier's own accuracy.
func TestInt8EngineAccuracyClose(t *testing.T) {
	cfg := data.Config{Name: "q", NumClasses: 6, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 3}
	ds := data.New(cfg)
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(4)), 6, 1)
	all := []int{0, 1, 2, 3, 4, 5}
	split := ds.MakeSplit("train", all, 8)
	for e := 0; e < 2; e++ {
		x := tensor.New(split.Len(), 3, 8, 8)
		copy(x.Data, split.X.Data)
		clf.TrainBatch(x, split.Labels)
	}
	test := ds.MakeSplit("test", all, 6)
	accuracy := func(opts CompileOptions) float64 {
		eng, err := NewWithOptions(clf, 4, sparsity.NM{N: 2, M: 4}, opts)
		if err != nil {
			t.Fatal(err)
		}
		hit := 0
		for i, c := range eng.Predict(test.X) {
			if c == test.Labels[i] {
				hit++
			}
		}
		return float64(hit) / float64(len(test.Labels))
	}
	fp, q8 := accuracy(CompileOptions{}), accuracy(CompileOptions{Precision: Int8})
	if dense := clf.Accuracy(test.X, test.Labels); fp != dense {
		t.Fatalf("float engine accuracy %v, classifier %v", fp, dense)
	}
	if math.Abs(fp-q8) > 0.15 {
		t.Fatalf("int8 serving moved accuracy %v → %v", fp, q8)
	}
}

// TestInt8EngineDeterministic: the quantized engine is as deterministic as
// the float one — identical outputs across repeated calls and across a
// recompile of the same classifier (the snapshot-restore invariant), and
// QuantSignature pins the quantized state: equal across recompiles, zero
// for float engines.
func TestInt8EngineDeterministic(t *testing.T) {
	clf, x, nm, b := prunedModel(t, models.ResNet)
	e1, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: Int8})
	if err != nil {
		t.Fatal(err)
	}
	if got := e1.Logits(x); !tensor.Equal(got, e1.Logits(x), 0) {
		t.Fatal("int8 engine is not deterministic across calls")
	}
	e2, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: Int8})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(e1.Logits(x), e2.Logits(x), 0) {
		t.Fatal("recompiled int8 engine diverged")
	}
	s1, s2 := e1.QuantSignature(), e2.QuantSignature()
	if s1 == 0 || s1 != s2 {
		t.Fatalf("quant signatures %x vs %x (must be equal and non-zero)", s1, s2)
	}
	ref, err := New(clf, b, nm)
	if err != nil {
		t.Fatal(err)
	}
	if ref.QuantSignature() != 0 {
		t.Fatalf("float engine has quant signature %x, want 0", ref.QuantSignature())
	}
}

// TestInt8LogitsBatchMatchesPerSample: batching changes only scheduling on
// the int8 path too — the per-column activation scales are computed per
// sample column, so a sample's codes (and therefore its logits) are
// identical whether it runs alone or inside a batch.
func TestInt8LogitsBatchMatchesPerSample(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.Transformer} {
		clf, x, nm, b := prunedModel(t, f)
		eng, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: Int8})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
		xs := make([]*tensor.Tensor, n)
		for i := 0; i < n; i++ {
			xs[i] = tensor.FromSlice(x.Data[i*c*h*w:(i+1)*c*h*w], 1, c, h, w)
		}
		batch := eng.LogitsBatch(xs)
		width := batch.Len() / n
		for i := 0; i < n; i++ {
			per := eng.Logits(xs[i])
			for j := 0; j < width; j++ {
				if got, want := batch.Data[i*width+j], per.Data[j]; got != want {
					t.Fatalf("%s: sample %d logit %d: batch %v vs per-sample %v", f, i, j, got, want)
				}
			}
		}
		preds := eng.PredictBatch(xs)
		solo := eng.Predict(x)
		for i := range preds {
			if preds[i] != solo[i] {
				t.Fatalf("%s: sample %d PredictBatch %d vs Predict %d", f, i, preds[i], solo[i])
			}
		}
	}
}

// TestInt8ArenaReuseDeterministic interleaves batch sizes on one int8
// engine: recycled int8/int32 slabs come back dirty and must never leak
// into results.
func TestInt8ArenaReuseDeterministic(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.Transformer} {
		clf, x, nm, b := prunedModel(t, f)
		eng, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: Int8})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
		one := tensor.FromSlice(x.Data[:c*h*w], 1, c, h, w)
		wantBatch := eng.Logits(x)
		wantOne := eng.Logits(one)
		for i := 0; i < 3; i++ {
			if got := eng.Logits(one); !tensor.Equal(got, wantOne, 0) {
				t.Fatalf("%s: single-sample pass %d diverged after arena reuse", f, i)
			}
			if got := eng.Logits(x); !tensor.Equal(got, wantBatch, 0) {
				t.Fatalf("%s: %d-sample pass %d diverged after arena reuse", f, n, i)
			}
		}
	}
}

// TestInt8EngineConcurrentDeterministic is the -race guard for the int8
// path's shared compiled state (quantized plans, pooled arenas with three
// slab types): concurrent passes must all equal the serial result.
func TestInt8EngineConcurrentDeterministic(t *testing.T) {
	clf, x, nm, b := prunedModel(t, models.ResNet)
	eng, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: Int8})
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Logits(x)
	var wg sync.WaitGroup
	const goroutines = 8
	errs := make([]bool, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := eng.Logits(x); !tensor.Equal(got, want, 0) {
					errs[gi] = true
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	for gi, bad := range errs {
		if bad {
			t.Fatalf("goroutine %d diverged from the serial int8 result", gi)
		}
	}
}
