package pruner

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/saliency"
	"repro/internal/sparsity"
)

// CRISP is the paper's hybrid structured pruning framework (Algorithm 1):
// iterative class-aware fine-tuning, N:M pruning with a straight-through
// estimator, and uniform per-row block pruning driven by globally ranked
// rank-column scores. The mask mathematics lives in internal/core; this
// type supplies the training loop around it.
type CRISP struct {
	Opts Options
}

// NewCRISP constructs the pruner.
func NewCRISP(opts Options) *CRISP { return &CRISP{Opts: opts.WithDefaults()} }

// coreConfig maps Options onto the mask-construction config.
func coreConfig(o Options) core.Config {
	return core.Config{NM: o.NM, BlockSize: o.BlockSize}
}

// coreLayers adapts prunable parameters and their scores to core.Layer
// views (masks are shared storage, so core writes them in place).
func coreLayers(params []*nn.Param, scores saliency.Scores) []*core.Layer {
	out := make([]*core.Layer, 0, len(params))
	for _, prm := range params {
		out = append(out, &core.Layer{
			ID:          prm.Name,
			Mask:        prm.MaskMatrixView(),
			Scores:      scores.MatrixView(prm),
			BlockExempt: prm.BlockExempt,
		})
	}
	return out
}

// Prune runs Algorithm 1 on clf using train as the user-class sample set,
// mutating the classifier's masks and weights in place.
func (c *CRISP) Prune(clf *nn.Classifier, train data.Split) Report {
	defer clf.ReleaseTrainingState()
	o := c.Opts
	rng := rand.New(rand.NewSource(o.Seed))
	opt := nn.NewSGD(o.LR, o.Momentum, o.WeightDecay)
	rep := Report{Method: "crisp-" + o.NM.String(), Target: o.Target}

	params := clf.PrunableParams()
	floor := 1 - o.NM.Density()
	for p := 1; p <= o.Iterations; p++ {
		// Step 2 (paper Fig. 5): class-aware fine-tuning. The first round
		// fine-tunes the dense model; later rounds recover from pruning.
		loss := Finetune(clf, train, o.FinetuneEpochs, o.BatchSize, opt, rng)

		// Step 4 of Alg. 1: estimate the class-aware saliency score.
		scores := saliency.Compute(clf, train, o.BatchSize, o.Saliency)

		// Lines 2–10: hybrid mask construction at the round's target κ_p.
		// ApplyNM rewrites the whole mask each round, so previously pruned
		// weights may revive (the STE kept them training).
		kappa := o.kappaAt(p, o.Iterations, floor)
		core.ApplyHybrid(coreLayers(params, scores), coreConfig(o), kappa)

		rep.Iterations = append(rep.Iterations, IterStat{
			Iteration: p,
			Kappa:     kappa,
			Sparsity:  clf.GlobalSparsity(),
			Loss:      loss,
		})
	}
	// Line 11 after the last round: recovery fine-tuning.
	Finetune(clf, train, o.FinalFinetuneEpochs, o.BatchSize, opt, rng)

	rep.AchievedSparsity = clf.GlobalSparsity()
	rep.FLOPsRatio = FLOPsRatio(clf)
	rep.Layers = LayerStats(clf, o.BlockSize)
	return rep
}

// LayerStats summarizes every prunable layer's mask state.
func LayerStats(clf *nn.Classifier, blockSize int) []LayerStat {
	var out []LayerStat
	for _, prm := range clf.PrunableParams() {
		st := LayerStat{
			Name:          prm.Name,
			Rows:          prm.Rows,
			Cols:          prm.Cols,
			Sparsity:      1 - prm.Density(),
			KeptBlockCols: -1,
		}
		if !prm.BlockExempt && prm.Mask != nil {
			g := sparsity.NewBlockGrid(prm.Rows, prm.Cols, blockSize)
			counts := sparsity.KeptBlocksPerRow(prm.MaskMatrixView(), g)
			st.GridCols = g.GridCols()
			if len(counts) > 0 {
				st.KeptBlockCols = counts[0]
			}
		}
		out = append(out, st)
	}
	return out
}
