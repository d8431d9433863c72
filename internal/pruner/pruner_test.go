package pruner

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/saliency"
	"repro/internal/sparsity"
)

// pretrainedCache holds one deterministic pre-trained model per family;
// tests receive fresh clones, so the ~1.5s pretraining runs once per family
// instead of once per test.
var pretrainedCache = struct {
	sync.Mutex
	m map[models.Family]*nn.Classifier
}{m: map[models.Family]*nn.Classifier{}}

// testSetup builds a small pre-trained classifier and its user-class split.
// The prune→fine-tune tests that need it are the package's full-scale paths
// and skip in -short mode (CI's race run); the plain tier-1 run and the
// nightly path keep them.
func testSetup(t *testing.T, f models.Family) (*nn.Classifier, data.Split, data.Split) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale prune+fine-tune path (short mode)")
	}
	cfg := data.Config{Name: "pt", NumClasses: 8, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 3}
	ds := data.New(cfg)
	build := func() *nn.Classifier {
		return models.Build(f, rand.New(rand.NewSource(11)), cfg.NumClasses, 1)
	}

	pretrainedCache.Lock()
	trained := pretrainedCache.m[f]
	if trained == nil {
		trained = build()
		Pretrain(trained, ds, 4, 12, 12)
		pretrainedCache.m[f] = trained
	}
	pretrainedCache.Unlock()
	clf := build()
	trained.CloneWeightsTo(clf)

	user := []int{1, 4, 6}
	train := ds.MakeSplit("train", user, 16)
	test := ds.MakeSplit("test", user, 8)
	return clf, train, test
}

func TestCRISPReachesTargetSparsity(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewCRISP(Options{
		Target: 0.85, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
		Iterations: 3, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	})
	rep := p.Prune(clf, train)
	if rep.AchievedSparsity < 0.80 {
		t.Fatalf("achieved sparsity %v, want ≥0.80 toward 0.85", rep.AchievedSparsity)
	}
	if rep.AchievedSparsity > 0.92 {
		t.Fatalf("overshoot: %v", rep.AchievedSparsity)
	}
}

func TestCRISPMaskInvariants(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	nm := sparsity.NM{N: 2, M: 4}
	p := NewCRISP(Options{
		Target: 0.8, NM: nm, BlockSize: 4,
		Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	})
	p.Prune(clf, train)
	for _, prm := range clf.PrunableParams() {
		mv := prm.MaskMatrixView()
		if err := sparsity.VerifyNM(mv, nm); err != nil {
			t.Fatalf("%s: %v", prm.Name, err)
		}
		if prm.BlockExempt {
			continue
		}
		g := sparsity.NewBlockGrid(prm.Rows, prm.Cols, 4)
		if err := sparsity.VerifyRowBalance(mv, g); err != nil {
			t.Fatalf("%s: %v", prm.Name, err)
		}
		// Layer-collapse guard: at least one block column per row survives.
		counts := sparsity.KeptBlocksPerRow(mv, g)
		for _, c := range counts {
			if c < 1 {
				t.Fatalf("%s: a block row lost every block", prm.Name)
			}
		}
	}
}

func TestCRISPSparsityMonotoneOverIterations(t *testing.T) {
	clf, train, _ := testSetup(t, models.VGG)
	p := NewCRISP(Options{
		Target: 0.85, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
		Iterations: 3, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	})
	rep := p.Prune(clf, train)
	if len(rep.Iterations) != 3 {
		t.Fatalf("iterations recorded %d", len(rep.Iterations))
	}
	for i := 1; i < len(rep.Iterations); i++ {
		if rep.Iterations[i].Sparsity+1e-9 < rep.Iterations[i-1].Sparsity {
			t.Fatalf("sparsity decreased: %+v", rep.Iterations)
		}
	}
	for i := 1; i < len(rep.Iterations); i++ {
		if rep.Iterations[i].Kappa < rep.Iterations[i-1].Kappa {
			t.Fatalf("kappa schedule not monotone: %+v", rep.Iterations)
		}
	}
}

func TestCRISPFLOPsRatioConsistent(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewCRISP(Options{
		Target: 0.8, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
		Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	})
	rep := p.Prune(clf, train)
	if rep.FLOPsRatio <= 0 || rep.FLOPsRatio >= 1 {
		t.Fatalf("FLOPs ratio %v out of (0,1)", rep.FLOPsRatio)
	}
	// FLOPs ratio must be within the plausible band implied by sparsity: not
	// lower than the overall kept fraction would ever allow (head excluded).
	if rep.FLOPsRatio < (1-rep.AchievedSparsity)*0.3 {
		t.Fatalf("FLOPs ratio %v implausibly low for sparsity %v", rep.FLOPsRatio, rep.AchievedSparsity)
	}
}

func TestCRISPPreservesMoreAccuracyThanUnbalancedBlocks(t *testing.T) {
	// The paper's Fig. 3 contrast at high sparsity on a shared substrate.
	type pruner interface {
		Prune(clf *nn.Classifier, train data.Split) Report
	}
	buildAndPrune := func(pr func(o Options) pruner) float64 {
		clf, train, test := testSetup(t, models.ResNet)
		o := Options{
			Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
			Iterations: 3, FinetuneEpochs: 2, BatchSize: 16, LR: 0.01, Seed: 5,
		}
		pr(o).Prune(clf, train)
		return clf.Accuracy(test.X, test.Labels)
	}
	crispAcc := buildAndPrune(func(o Options) pruner { return NewCRISP(o) })
	blockAcc := buildAndPrune(func(o Options) pruner { return NewBlockOnly(o, false) })
	if crispAcc < blockAcc-0.05 {
		t.Fatalf("CRISP %.3f should not trail block-only %.3f at κ=0.9", crispAcc, blockAcc)
	}
}

func TestNMOnlySparsityExact(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewNMOnly(Options{NM: sparsity.NM{N: 1, M: 4}, Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01})
	rep := p.Prune(clf, train)
	// All prunable dims here are multiples of 4 → exact 75% sparsity.
	if math.Abs(rep.AchievedSparsity-0.75) > 0.02 {
		t.Fatalf("1:4 sparsity %v, want ≈0.75", rep.AchievedSparsity)
	}
}

func TestBlockOnlyUnbalancedReachesTarget(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewBlockOnly(Options{Target: 0.7, BlockSize: 4, Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01}, false)
	rep := p.Prune(clf, train)
	if math.Abs(rep.AchievedSparsity-0.7) > 0.05 {
		t.Fatalf("block-only sparsity %v, want ≈0.7", rep.AchievedSparsity)
	}
}

func TestBlockOnlyBalancedKeepsRowBalance(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewBlockOnly(Options{Target: 0.6, BlockSize: 4, Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01}, true)
	p.Prune(clf, train)
	for _, prm := range clf.PrunableParams() {
		if prm.BlockExempt {
			continue
		}
		g := sparsity.NewBlockGrid(prm.Rows, prm.Cols, 4)
		if err := sparsity.VerifyRowBalance(prm.MaskMatrixView(), g); err != nil {
			t.Fatalf("%s: %v", prm.Name, err)
		}
	}
}

func TestChannelPruningRemovesWholeRows(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewChannel(Options{Target: 0.5, Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01})
	rep := p.Prune(clf, train)
	if math.Abs(rep.AchievedSparsity-0.5) > 0.08 {
		t.Fatalf("channel sparsity %v, want ≈0.5", rep.AchievedSparsity)
	}
	for _, prm := range clf.PrunableParams() {
		mv := prm.MaskMatrixView()
		alive := 0
		for r := 0; r < prm.Rows; r++ {
			nz := 0
			for c := 0; c < prm.Cols; c++ {
				if mv.At(r, c) != 0 {
					nz++
				}
			}
			if nz != 0 && nz != prm.Cols {
				t.Fatalf("%s row %d partially pruned (%d/%d)", prm.Name, r, nz, prm.Cols)
			}
			if nz > 0 {
				alive++
			}
		}
		if alive == 0 {
			t.Fatalf("%s: all channels pruned", prm.Name)
		}
	}
}

func TestScheduleShapes(t *testing.T) {
	o := Options{Target: 0.9}.WithDefaults()
	// Linear: evenly spaced.
	lin1 := o.kappaAt(1, 3, 0.5)
	lin2 := o.kappaAt(2, 3, 0.5)
	lin3 := o.kappaAt(3, 3, 0.5)
	if math.Abs(lin3-0.9) > 1e-12 {
		t.Fatalf("final kappa %v != target", lin3)
	}
	if math.Abs((lin2-lin1)-(lin3-lin2)) > 1e-12 {
		t.Fatalf("linear schedule not even: %v %v %v", lin1, lin2, lin3)
	}
	// Cubic: front-loaded.
	o.Schedule = ScheduleCubic
	cub1 := o.kappaAt(1, 3, 0.5)
	if cub1 <= lin1 {
		t.Fatalf("cubic first step %v should exceed linear %v", cub1, lin1)
	}
	if math.Abs(o.kappaAt(3, 3, 0.5)-0.9) > 1e-12 {
		t.Fatal("cubic must end at target")
	}
}

func TestFLOPsRatioDenseIsOne(t *testing.T) {
	clf, train, _ := testSetup(t, models.MobileNet)
	_ = train
	if r := FLOPsRatio(clf); math.Abs(r-1) > 1e-12 {
		t.Fatalf("dense FLOPs ratio %v", r)
	}
}

func TestLayerStatsShape(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewCRISP(Options{Target: 0.8, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01})
	rep := p.Prune(clf, train)
	if len(rep.Layers) != len(clf.PrunableParams()) {
		t.Fatalf("layer stats %d, prunable %d", len(rep.Layers), len(clf.PrunableParams()))
	}
	// Layer-wise sparsity must be non-uniform (the paper's Fig. 2 point):
	// global rank selection prunes some layers much harder than others.
	minS, maxS := 1.0, 0.0
	for _, ls := range rep.Layers {
		if ls.Sparsity < minS {
			minS = ls.Sparsity
		}
		if ls.Sparsity > maxS {
			maxS = ls.Sparsity
		}
	}
	if maxS-minS < 0.01 {
		t.Fatalf("layer sparsity suspiciously uniform: min %v max %v", minS, maxS)
	}
}

func TestClassAwareSaliencyDiffersFromMagnitude(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	cass := saliency.Compute(clf, train, 16, saliency.Taylor)
	mag := saliency.Compute(clf, train, 16, saliency.Magnitude)
	prm := clf.PrunableParams()[0]
	// The two criteria must rank at least some weights differently.
	diff := false
	c, m := cass[prm], mag[prm]
	for i := 1; i < c.Len(); i++ {
		if (c.Data[i] > c.Data[0]) != (m.Data[i] > m.Data[0]) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("CASS and magnitude produce identical rankings")
	}
}

func TestSaliencyLeavesGradsClean(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	saliency.Compute(clf, train, 16, saliency.Taylor)
	for _, p := range clf.Params() {
		if p.Grad.CountNonZero() != 0 {
			t.Fatalf("param %s left dirty gradient", p.Name)
		}
	}
}

func TestSaliencyNonNegative(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	for _, m := range []saliency.Method{saliency.Taylor, saliency.Magnitude, saliency.GradOnly} {
		s := saliency.Compute(clf, train, 16, m)
		for prm, sv := range s {
			for _, v := range sv.Data {
				if v < 0 || math.IsNaN(v) {
					t.Fatalf("%s %s: invalid score %v", m, prm.Name, v)
				}
			}
		}
	}
}

func TestMixedNMReachesTargetWithVariedPatterns(t *testing.T) {
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewMixedNM(Options{Target: 0.68, Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01})
	rep := p.Prune(clf, train)
	if rep.Method != "mixed-nm" {
		t.Fatalf("method %s", rep.Method)
	}
	if math.Abs(rep.AchievedSparsity-0.68) > 0.08 {
		t.Fatalf("sparsity %v, want ≈0.68", rep.AchievedSparsity)
	}
	// Every layer must satisfy its assigned pattern, and at a target between
	// the 1:4 and 3:4 floors the assignment should not be uniform.
	patterns := p.AssignedPatterns(clf)
	seen := map[string]bool{}
	for _, prm := range clf.PrunableParams() {
		nm := patterns[prm.Name]
		if err := sparsity.VerifyNM(prm.MaskMatrixView(), nm); err != nil {
			t.Fatalf("%s: %v", prm.Name, err)
		}
		seen[nm.String()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("mixed search assigned a single pattern everywhere: %v", seen)
	}
	if len(patterns) != len(clf.PrunableParams()) {
		t.Fatal("pattern map incomplete")
	}
}

func TestMixedNMExtremesCollapseToUniform(t *testing.T) {
	// At the 1:4 floor the search must assign 1:4 everywhere.
	clf, train, _ := testSetup(t, models.ResNet)
	p := NewMixedNM(Options{Target: 0.75, Iterations: 1, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01})
	p.Prune(clf, train)
	for name, nm := range p.AssignedPatterns(clf) {
		if nm.N != 1 {
			t.Fatalf("%s assigned %s at the 1:4 floor", name, nm)
		}
	}
}
