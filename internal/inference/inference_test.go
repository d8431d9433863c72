package inference

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/format"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// prunedModel returns a CRISP-pruned classifier and a test batch.
func prunedModel(t *testing.T, f models.Family) (*nn.Classifier, *tensor.Tensor, sparsity.NM, int) {
	t.Helper()
	cfg := data.Config{Name: "inf", NumClasses: 8, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 7}
	ds := data.New(cfg)
	clf := models.Build(f, rand.New(rand.NewSource(21)), cfg.NumClasses, 1)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	opt := nn.NewSGD(0.05, 0.9, 4e-5)
	pruner.Finetune(clf, ds.MakeSplit("pre", all, 8), 2, 16, opt, rand.New(rand.NewSource(22)))

	nm := sparsity.NM{N: 2, M: 4}
	p := pruner.NewCRISP(pruner.Options{
		Target: 0.8, NM: nm, BlockSize: 4, Iterations: 2,
		FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	})
	p.Prune(clf, ds.MakeSplit("user", []int{1, 5}, 12))

	test := ds.MakeSplit("test", []int{1, 5}, 4)
	return clf, test.X, nm, 4
}

func TestEngineMatchesMaskedDense(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		clf, x, nm, b := prunedModel(t, f)
		eng, err := New(clf, b, nm)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		dense := clf.Logits(x, false)
		sparse := eng.Logits(x)
		if !tensor.Equal(dense, sparse, 1e-9) {
			t.Fatalf("%s: sparse engine disagrees with masked dense model", f)
		}
		if eng.CompressedLayers == 0 {
			t.Fatalf("%s: no layers ran compressed", f)
		}
	}
}

// TestLogitsBatchBitIdentical asserts the batched sparse path computes
// exactly what the per-sample path computes across the paper's three
// families: stacking must change scheduling, never numerics.
func TestLogitsBatchBitIdentical(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet} {
		clf, x, nm, b := prunedModel(t, f)
		eng, err := New(clf, b, nm)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
		xs := make([]*tensor.Tensor, n)
		for i := 0; i < n; i++ {
			xs[i] = tensor.FromSlice(x.Data[i*c*h*w:(i+1)*c*h*w], 1, c, h, w)
		}
		batch := eng.LogitsBatch(xs)
		if batch.Shape[0] != n {
			t.Fatalf("%s: batch shape %v", f, batch.Shape)
		}
		width := batch.Len() / n
		for i := 0; i < n; i++ {
			per := eng.Logits(xs[i])
			for j := 0; j < width; j++ {
				if got, want := batch.Data[i*width+j], per.Data[j]; got != want {
					t.Fatalf("%s: sample %d logit %d differs: batch %v vs per-sample %v", f, i, j, got, want)
				}
			}
		}
		// The dense reference batch path must agree bit-for-bit too.
		denseBatch := clf.Logits(x, false)
		for i := 0; i < n; i++ {
			per := clf.Logits(xs[i], false)
			for j := 0; j < width; j++ {
				if denseBatch.Data[i*width+j] != per.Data[j] {
					t.Fatalf("%s: dense batch path diverges at sample %d", f, i)
				}
			}
		}
	}
}

// TestPredictMatchesAccuracyArgmax checks Engine.Predict returns the same
// argmax the classifier's accuracy computation uses.
func TestPredictMatchesAccuracyArgmax(t *testing.T) {
	clf, x, nm, b := prunedModel(t, models.ResNet)
	eng, err := New(clf, b, nm)
	if err != nil {
		t.Fatal(err)
	}
	preds := eng.Predict(x)
	if len(preds) != x.Shape[0] {
		t.Fatalf("predictions %d for %d samples", len(preds), x.Shape[0])
	}
	dense := clf.Predict(x)
	for i := range preds {
		if preds[i] != dense[i] {
			t.Fatalf("sample %d: sparse argmax %d vs dense %d", i, preds[i], dense[i])
		}
	}
}

func TestEngineOnDenseModelStillCorrect(t *testing.T) {
	// An unpruned model must also execute (CSR fallback everywhere).
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(30)), 5, 1)
	rng := rand.New(rand.NewSource(31))
	x := tensor.Randn(rng, 1, 2, 3, 8, 8)
	eng, err := New(clf, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(clf.Logits(x, false), eng.Logits(x), 1e-9) {
		t.Fatal("dense fallback disagrees")
	}

	// Unless a matrix is wider than a plan's uint16 columns reach: then
	// compile is an error naming the parameter, at either precision.
	wide := nn.NewClassifier("wide", nn.NewLinear("fc", rng, format.MaxCols+1, 2, true), 2)
	for _, prec := range []Precision{Float32, Int8} {
		_, err := NewWithOptions(wide, 4, sparsity.NM{N: 2, M: 4}, CompileOptions{Precision: prec})
		if err == nil || !strings.Contains(err.Error(), "fc.weight") {
			t.Fatalf("%s: a %d-input linear layer compiled with error %v, want one naming fc.weight", prec, format.MaxCols+1, err)
		}
	}
}

func TestEngineRepeatedCalls(t *testing.T) {
	clf, x, nm, b := prunedModel(t, models.ResNet)
	eng, err := New(clf, b, nm)
	if err != nil {
		t.Fatal(err)
	}
	a := eng.Logits(x)
	bb := eng.Logits(x)
	if !tensor.Equal(a, bb, 0) {
		t.Fatal("engine is not deterministic across calls")
	}
}

// TestPredictBatchMatchesPredict: the batcher entry point must return
// exactly the per-sample argmaxes, for a lone sample and for a coalesced
// batch.
func TestPredictBatchMatchesPredict(t *testing.T) {
	clf, x, nm, b := prunedModel(t, models.ResNet)
	eng, err := New(clf, b, nm)
	if err != nil {
		t.Fatal(err)
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	xs := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		xs[i] = tensor.FromSlice(x.Data[i*c*h*w:(i+1)*c*h*w], 1, c, h, w)
	}
	want := eng.Predict(x)
	got := eng.PredictBatch(xs)
	if len(got) != n {
		t.Fatalf("batch predictions %d for %d samples", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: PredictBatch %d vs Predict %d", i, got[i], want[i])
		}
	}
	for i := range xs {
		solo := eng.PredictBatch(xs[i : i+1])
		if len(solo) != 1 || solo[0] != want[i] {
			t.Fatalf("sample %d: single-element PredictBatch %v vs %d", i, solo, want[i])
		}
	}
}

// TestEngineArenaReuseDeterministic hammers one engine with interleaved
// batch sizes: recycled arena buffers (which come back dirty) must never
// leak into results — every pass must be bit-identical to a fresh engine's.
func TestEngineArenaReuseDeterministic(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.Transformer, models.MobileNet} {
		clf, x, nm, b := prunedModel(t, f)
		eng, err := New(clf, b, nm)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
		one := tensor.FromSlice(x.Data[:c*h*w], 1, c, h, w)
		wantBatch := eng.Logits(x)
		wantOne := eng.Logits(one)
		// Interleave shapes so every layer sees shrinking and growing
		// buffers drawn from the same recycled arena.
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

// TestEngineConcurrentBitIdentical runs many concurrent passes (each with
// its own pooled arena) and checks every result against the serial one —
// the -race guard for the engine's shared compiled state.
func TestEngineConcurrentBitIdentical(t *testing.T) {
	clf, x, nm, b := prunedModel(t, models.ResNet)
	eng, err := New(clf, b, nm)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Logits(x)
	var wg sync.WaitGroup
	const goroutines = 8
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := eng.Logits(x); !tensor.Equal(got, want, 0) {
					errs[gi] = fmt.Errorf("goroutine %d pass %d diverged", gi, i)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
