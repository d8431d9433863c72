package pruner

import (
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/saliency"
	"repro/internal/sparsity"
)

// NMOnly prunes with the fine-grained N:M pattern alone (no block pruning),
// the configuration behind the paper's Fig. 1 N:M sweep. The achievable
// sparsity is fixed at 1 − N/M.
type NMOnly struct {
	Opts Options
}

// NewNMOnly constructs the baseline.
func NewNMOnly(opts Options) *NMOnly { return &NMOnly{Opts: opts.WithDefaults()} }

// Prune applies N:M masks iteratively with fine-tuning between rounds.
func (b *NMOnly) Prune(clf *nn.Classifier, train data.Split) Report {
	defer clf.ReleaseTrainingState()
	o := b.Opts
	rng := rand.New(rand.NewSource(o.Seed))
	opt := nn.NewSGD(o.LR, o.Momentum, o.WeightDecay)
	rep := Report{Method: "nm-only-" + o.NM.String(), Target: 1 - o.NM.Density()}
	params := clf.PrunableParams()
	for p := 1; p <= o.Iterations; p++ {
		loss := Finetune(clf, train, o.FinetuneEpochs, o.BatchSize, opt, rng)
		scores := saliency.Compute(clf, train, o.BatchSize, o.Saliency)
		for _, prm := range params {
			sparsity.ApplyNM(prm.MaskMatrixView(), scores.MatrixView(prm), o.NM)
		}
		rep.Iterations = append(rep.Iterations, IterStat{Iteration: p, Kappa: rep.Target, Sparsity: clf.GlobalSparsity(), Loss: loss})
	}
	Finetune(clf, train, o.FinalFinetuneEpochs, o.BatchSize, opt, rng)
	rep.AchievedSparsity = clf.GlobalSparsity()
	rep.FLOPsRatio = FLOPsRatio(clf)
	rep.Layers = LayerStats(clf, o.BlockSize)
	return rep
}

// BlockOnly is the coarse-grained block-sparsity baseline of the paper's
// Fig. 3. With Balanced=false (the classic scheme) the globally
// lowest-scoring B×B blocks are pruned wherever they fall — rows lose
// arbitrary numbers of blocks and whole filters can die, which is exactly
// why the baseline collapses at high sparsity. Balanced=true uses CRISP's
// rank-column mechanism without N:M (the Ablation C comparator).
type BlockOnly struct {
	Opts     Options
	Balanced bool
}

// NewBlockOnly constructs the baseline.
func NewBlockOnly(opts Options, balanced bool) *BlockOnly {
	return &BlockOnly{Opts: opts.WithDefaults(), Balanced: balanced}
}

// Prune iteratively removes blocks until the target sparsity.
func (b *BlockOnly) Prune(clf *nn.Classifier, train data.Split) Report {
	defer clf.ReleaseTrainingState()
	o := b.Opts
	rng := rand.New(rand.NewSource(o.Seed))
	opt := nn.NewSGD(o.LR, o.Momentum, o.WeightDecay)
	name := "block-unbalanced"
	if b.Balanced {
		name = "block-balanced"
	}
	rep := Report{Method: name, Target: o.Target}
	params := clf.PrunableParams()
	for p := 1; p <= o.Iterations; p++ {
		loss := Finetune(clf, train, o.FinetuneEpochs, o.BatchSize, opt, rng)
		scores := saliency.Compute(clf, train, o.BatchSize, o.Saliency)
		// Reset masks: block pruning is recomputed from scratch each round.
		for _, prm := range params {
			prm.EnsureMask().Fill(1)
		}
		kappa := o.kappaAt(p, o.Iterations, 0)
		if b.Balanced {
			b.pruneBalanced(params, scores, kappa)
		} else {
			b.pruneUnbalanced(params, scores, kappa)
		}
		rep.Iterations = append(rep.Iterations, IterStat{Iteration: p, Kappa: kappa, Sparsity: clf.GlobalSparsity(), Loss: loss})
	}
	Finetune(clf, train, o.FinalFinetuneEpochs, o.BatchSize, opt, rng)
	rep.AchievedSparsity = clf.GlobalSparsity()
	rep.FLOPsRatio = FLOPsRatio(clf)
	rep.Layers = LayerStats(clf, o.BlockSize)
	return rep
}

// pruneBalanced reuses CRISP's rank-column machinery without N:M (a 1:1
// pattern keeps every element, so only block pruning acts).
func (b *BlockOnly) pruneBalanced(params []*nn.Param, scores saliency.Scores, kappa float64) {
	cfg := coreConfig(b.Opts)
	cfg.NM = sparsity.NM{N: 1, M: 1}
	core.ApplyHybrid(coreLayers(params, scores), cfg, kappa)
}

// pruneUnbalanced prunes individual blocks globally by ascending score.
func (b *BlockOnly) pruneUnbalanced(params []*nn.Param, scores saliency.Scores, kappa float64) {
	o := b.Opts
	type blockRef struct {
		param  *nn.Param
		grid   sparsity.BlockGrid
		br, bc int
		score  float64
		cost   int
	}
	total, nonzero := 0, 0
	var blocks []blockRef
	for _, prm := range params {
		total += prm.W.Len()
		nonzero += prm.EnsureMask().CountNonZero()
		if prm.BlockExempt {
			continue
		}
		g := sparsity.NewBlockGrid(prm.Rows, prm.Cols, o.BlockSize)
		bs := sparsity.BlockScores(scores.MatrixView(prm), g)
		for br := 0; br < g.GridRows(); br++ {
			for bc := 0; bc < g.GridCols(); bc++ {
				r0, r1, c0, c1 := g.Bounds(br, bc)
				blocks = append(blocks, blockRef{
					param: prm, grid: g, br: br, bc: bc,
					score: bs.At(br, bc),
					cost:  (r1 - r0) * (c1 - c0),
				})
			}
		}
	}
	sort.SliceStable(blocks, func(a, b int) bool { return blocks[a].score < blocks[b].score })
	targetNonzero := int((1 - kappa) * float64(total))
	for _, blk := range blocks {
		if nonzero <= targetNonzero {
			break
		}
		mask := blk.param.MaskMatrixView()
		cols := mask.Shape[1]
		r0, r1, c0, c1 := blk.grid.Bounds(blk.br, blk.bc)
		for r := r0; r < r1; r++ {
			for cc := c0; cc < c1; cc++ {
				mask.Data[r*cols+cc] = 0
			}
		}
		nonzero -= blk.cost
	}
}

// Channel is the CAPNN-style class-aware structured baseline: entire
// output channels (rows of the pruning view) are removed by ascending
// score, each row scored by its summed weight saliency over the user
// samples. At least minKeepRows rows survive per layer.
type Channel struct {
	Opts Options
}

// minKeepRows floors the surviving channels per layer.
const minKeepRows = 1

// NewChannel constructs the baseline.
func NewChannel(opts Options) *Channel { return &Channel{Opts: opts.WithDefaults()} }

// Prune iteratively removes channels until the target sparsity.
func (b *Channel) Prune(clf *nn.Classifier, train data.Split) Report {
	defer clf.ReleaseTrainingState()
	o := b.Opts
	rng := rand.New(rand.NewSource(o.Seed))
	opt := nn.NewSGD(o.LR, o.Momentum, o.WeightDecay)
	rep := Report{Method: "channel", Target: o.Target}
	params := clf.PrunableParams()
	for p := 1; p <= o.Iterations; p++ {
		loss := Finetune(clf, train, o.FinetuneEpochs, o.BatchSize, opt, rng)
		rowScores := b.rowScores(clf, train)
		for _, prm := range params {
			prm.EnsureMask().Fill(1)
		}
		kappa := o.kappaAt(p, o.Iterations, 0)
		b.pruneChannels(params, rowScores, kappa)
		rep.Iterations = append(rep.Iterations, IterStat{Iteration: p, Kappa: kappa, Sparsity: clf.GlobalSparsity(), Loss: loss})
	}
	Finetune(clf, train, o.FinalFinetuneEpochs, o.BatchSize, opt, rng)
	rep.AchievedSparsity = clf.GlobalSparsity()
	rep.FLOPsRatio = FLOPsRatio(clf)
	rep.Layers = LayerStats(clf, o.BlockSize)
	return rep
}

// rowScores returns one score per output row of every prunable parameter:
// the row's summed weight saliency.
func (b *Channel) rowScores(clf *nn.Classifier, train data.Split) map[*nn.Param][]float64 {
	out := map[*nn.Param][]float64{}
	scores := saliency.Compute(clf, train, b.Opts.BatchSize, b.Opts.Saliency)
	for _, prm := range clf.PrunableParams() {
		sv := scores.MatrixView(prm)
		rows := make([]float64, prm.Rows)
		for r := 0; r < prm.Rows; r++ {
			s := 0.0
			for c := 0; c < prm.Cols; c++ {
				s += sv.At(r, c)
			}
			rows[r] = s
		}
		out[prm] = rows
	}
	return out
}

func (b *Channel) pruneChannels(params []*nn.Param, rowScores map[*nn.Param][]float64, kappa float64) {
	type rowRef struct {
		param *nn.Param
		row   int
		score float64
	}
	total, nonzero := 0, 0
	var rows []rowRef
	keepLeft := map[*nn.Param]int{}
	for _, prm := range params {
		total += prm.W.Len()
		nonzero += prm.EnsureMask().CountNonZero()
		keepLeft[prm] = prm.Rows
		for r := 0; r < prm.Rows; r++ {
			rows = append(rows, rowRef{param: prm, row: r, score: rowScores[prm][r]})
		}
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].score < rows[b].score })
	targetNonzero := int((1 - kappa) * float64(total))
	for _, rr := range rows {
		if nonzero <= targetNonzero {
			break
		}
		if keepLeft[rr.param] <= minKeepRows {
			continue
		}
		mask := rr.param.MaskMatrixView()
		cols := mask.Shape[1]
		removed := 0
		for c := 0; c < cols; c++ {
			if mask.Data[rr.row*cols+c] != 0 {
				mask.Data[rr.row*cols+c] = 0
				removed++
			}
		}
		nonzero -= removed
		keepLeft[rr.param]--
	}
}
