package pruner

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/saliency"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Failure-injection and degenerate-input coverage: the pruning framework
// must stay well-defined on empty data, extreme targets and adversarial
// configurations.

func TestOptionsValidate(t *testing.T) {
	good := Options{Target: 0.9, NM: sparsity.NM{N: 2, M: 4}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{Target: -0.1},
		{Target: 1.0},
		{Target: 0.5, NM: sparsity.NM{N: 9, M: 4}},
		{Target: 0.5, BlockSize: -4},
		{Target: 0.5, Momentum: 1.0},
		{Target: 0.5, LR: -1},
		{Target: 0.5, FinalFinetuneEpochs: -1},
		{Target: 0.5, Schedule: ScheduleCubic + 1},
		{Target: 0.5, Schedule: -1},
		{Target: 0.5, Saliency: saliency.GradOnly + 1},
		{Target: 0.5, Saliency: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("bad options %d accepted: %+v", i, o)
		}
	}
}

func TestWithDefaultsPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid options")
		}
	}()
	NewCRISP(Options{Target: 2})
}

func TestPruneWithEmptyTrainSplit(t *testing.T) {
	// No user samples at all: saliency degrades to zero scores; the pruner
	// must still produce valid masks at the target sparsity.
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(61)), 4, 1)
	empty := data.Split{X: tensor.New(0, 3, 8, 8), Labels: nil}
	nm := sparsity.NM{N: 2, M: 4}
	p := NewCRISP(Options{Target: 0.8, NM: nm, BlockSize: 4, Iterations: 2, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01})
	rep := p.Prune(clf, empty)
	if rep.AchievedSparsity < 0.75 {
		t.Fatalf("sparsity %v with empty split", rep.AchievedSparsity)
	}
	for _, prm := range clf.PrunableParams() {
		if err := sparsity.VerifyNM(prm.MaskMatrixView(), nm); err != nil {
			t.Fatalf("%s: %v", prm.Name, err)
		}
	}
}

func TestPruneSingleSample(t *testing.T) {
	cfg := data.Config{Name: "f1", NumClasses: 4, Channels: 3, H: 8, W: 8, Noise: 0.2, Jitter: 1, Seed: 62}
	ds := data.New(cfg)
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(63)), 4, 1)
	one := ds.MakeSplit("train", []int{2}, 1)
	p := NewCRISP(Options{Target: 0.8, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, Iterations: 2, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01})
	rep := p.Prune(clf, one)
	if rep.AchievedSparsity < 0.75 {
		t.Fatalf("sparsity %v with a single sample", rep.AchievedSparsity)
	}
}

func TestPruneZeroTarget(t *testing.T) {
	// Target 0: only the N:M floor applies.
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(64)), 4, 1)
	cfg := data.Config{Name: "f2", NumClasses: 4, Channels: 3, H: 8, W: 8, Noise: 0.2, Jitter: 1, Seed: 65}
	ds := data.New(cfg)
	train := ds.MakeSplit("train", []int{0, 1}, 4)
	p := NewCRISP(Options{Target: 0, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, Iterations: 1, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01})
	rep := p.Prune(clf, train)
	if rep.AchievedSparsity < 0.45 || rep.AchievedSparsity > 0.55 {
		t.Fatalf("sparsity %v, want ≈0.5 (N:M floor)", rep.AchievedSparsity)
	}
}

func TestPruneExtremeTarget(t *testing.T) {
	// κ=0.99 with the layer-collapse floor in place: every block row must
	// retain at least one block; the target is approached but bounded.
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(66)), 4, 1)
	cfg := data.Config{Name: "f3", NumClasses: 4, Channels: 3, H: 8, W: 8, Noise: 0.2, Jitter: 1, Seed: 67}
	ds := data.New(cfg)
	train := ds.MakeSplit("train", []int{0, 1}, 4)
	p := NewCRISP(Options{Target: 0.99, NM: sparsity.NM{N: 1, M: 4}, BlockSize: 4, Iterations: 2, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01})
	rep := p.Prune(clf, train)
	for _, prm := range clf.PrunableParams() {
		if prm.BlockExempt {
			continue
		}
		g := sparsity.NewBlockGrid(prm.Rows, prm.Cols, 4)
		for _, c := range sparsity.KeptBlocksPerRow(prm.MaskMatrixView(), g) {
			if c < 1 {
				t.Fatalf("%s: layer collapse at extreme target", prm.Name)
			}
		}
	}
	if rep.AchievedSparsity < 0.9 {
		t.Fatalf("sparsity %v, want ≥0.9 at κ=0.99", rep.AchievedSparsity)
	}
}

func TestFinetuneEmptySplit(t *testing.T) {
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(68)), 4, 1)
	empty := data.Split{X: tensor.New(0, 3, 8, 8), Labels: nil}
	opt := nn.NewSGD(0.01, 0.9, 0)
	loss := Finetune(clf, empty, 3, 8, opt, rand.New(rand.NewSource(69)))
	if loss != 0 {
		t.Fatalf("loss %v on empty split", loss)
	}
}

func TestChannelPrunerKeepsFloor(t *testing.T) {
	// Even at an absurd target, at least minKeepRows channels survive.
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(70)), 4, 1)
	cfg := data.Config{Name: "f4", NumClasses: 4, Channels: 3, H: 8, W: 8, Noise: 0.2, Jitter: 1, Seed: 71}
	ds := data.New(cfg)
	train := ds.MakeSplit("train", []int{0}, 4)
	p := NewChannel(Options{Target: 0.99, Iterations: 1, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01})
	p.Prune(clf, train)
	for _, prm := range clf.PrunableParams() {
		mv := prm.MaskMatrixView()
		alive := 0
		for r := 0; r < prm.Rows; r++ {
			for c := 0; c < prm.Cols; c++ {
				if mv.At(r, c) != 0 {
					alive++
					break
				}
			}
		}
		if alive < minKeepRows {
			t.Fatalf("%s: %d rows alive, floor %d", prm.Name, alive, minKeepRows)
		}
	}
}
