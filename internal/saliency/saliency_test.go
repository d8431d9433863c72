package saliency

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func fixture(t *testing.T) (*nn.Classifier, data.Split) {
	t.Helper()
	cfg := data.Config{Name: "sal", NumClasses: 6, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 5}
	ds := data.New(cfg)
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(1)), cfg.NumClasses, 1)
	split := ds.MakeSplit("train", []int{1, 3}, 8)
	return clf, split
}

func TestMethodStrings(t *testing.T) {
	if Taylor.String() != "taylor-cass" || Magnitude.String() != "magnitude" || GradOnly.String() != "grad-only" {
		t.Fatal("method names changed")
	}
}

func TestTaylorMatchesManualComputation(t *testing.T) {
	// For a single batch, Taylor scores must equal |grad ⊙ W| computed by
	// hand from one TrainBatch call.
	clf, split := fixture(t)
	scores := Compute(clf, split, split.Len(), Taylor) // one batch

	clf2, _ := fixture(t)
	nn.ZeroGrad(clf2.Params())
	x := tensor.New(split.Len(), split.X.Shape[1], split.X.Shape[2], split.X.Shape[3])
	copy(x.Data, split.X.Data)
	clf2.TrainBatch(x, split.Labels)

	p1 := clf.PrunableParams()
	p2 := clf2.PrunableParams()
	for i := range p1 {
		s := scores[p1[i]]
		for j := range s.Data {
			want := math.Abs(p2[i].Grad.Data[j] * p2[i].W.Data[j])
			if math.Abs(s.Data[j]-want) > 1e-9*(1+want) {
				t.Fatalf("param %s[%d]: score %v, want %v", p1[i].Name, j, s.Data[j], want)
			}
		}
	}
}

func TestMagnitudeIsAbsWeights(t *testing.T) {
	clf, split := fixture(t)
	scores := Compute(clf, split, 8, Magnitude)
	for _, p := range clf.PrunableParams() {
		s := scores[p]
		for i := range s.Data {
			if s.Data[i] != math.Abs(p.W.Data[i]) {
				t.Fatalf("%s[%d]: %v != |%v|", p.Name, i, s.Data[i], p.W.Data[i])
			}
		}
	}
}

func TestScoresCoverAllPrunableParams(t *testing.T) {
	clf, split := fixture(t)
	for _, m := range []Method{Taylor, Magnitude, GradOnly} {
		scores := Compute(clf, split, 8, m)
		if len(scores) != len(clf.PrunableParams()) {
			t.Fatalf("%s: %d scores for %d params", m, len(scores), len(clf.PrunableParams()))
		}
		for p, s := range scores {
			if s.Len() != p.W.Len() {
				t.Fatalf("%s: score volume mismatch for %s", m, p.Name)
			}
		}
	}
}

func TestClassAwareScoresDependOnClasses(t *testing.T) {
	// Gradients from different user classes must rank weights differently —
	// the premise of class-aware pruning.
	cfg := data.Config{Name: "sal2", NumClasses: 6, Channels: 3, H: 8, W: 8, Noise: 0.2, Jitter: 1, Seed: 6}
	ds := data.New(cfg)
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(2)), cfg.NumClasses, 1)
	a := Compute(clf, ds.MakeSplit("train", []int{0, 1}, 8), 8, Taylor)
	b := Compute(clf, ds.MakeSplit("train", []int{4, 5}, 8), 8, Taylor)
	p := clf.PrunableParams()[0]
	maxRel := 0.0
	for i := range a[p].Data {
		d := math.Abs(a[p].Data[i] - b[p].Data[i])
		if d > maxRel {
			maxRel = d
		}
	}
	if maxRel == 0 {
		t.Fatal("saliency identical across disjoint class sets")
	}
}

func TestMatrixViewShape(t *testing.T) {
	clf, split := fixture(t)
	scores := Compute(clf, split, 8, Magnitude)
	p := clf.PrunableParams()[0]
	mv := scores.MatrixView(p)
	if mv.Shape[0] != p.Rows || mv.Shape[1] != p.Cols {
		t.Fatalf("matrix view %v, want %dx%d", mv.Shape, p.Rows, p.Cols)
	}
}

func TestComputeRaggedBatches(t *testing.T) {
	// Split of 16 with batch 5 → batches 5,5,5,1; must not panic and must
	// leave gradients clean.
	clf, split := fixture(t)
	scores := Compute(clf, split, 5, Taylor)
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	for _, p := range clf.Params() {
		if p.Grad.CountNonZero() != 0 {
			t.Fatalf("dirty grad on %s", p.Name)
		}
	}
}
