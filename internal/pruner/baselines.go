package pruner

import (
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

// Prune applies N:M masks iteratively with fine-tuning between rounds. Its
// target and every round's κ are the pattern's fixed 1 − N/M.
func (b *NMOnly) Prune(clf *nn.Classifier, train data.Split) Report {
	o := b.Opts
	o.Target = 1 - o.NM.Density()
	return run(clf, train, o, "nm-only-"+o.NM.String(), o.Target, func(params []*nn.Param, scores saliency.Scores, _ float64) {
		for _, prm := range params {
			sparsity.ApplyNM(prm.MaskMatrixView(), scores.MatrixView(prm), o.NM)
		}
	})
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
	if b.Balanced {
		return run(clf, train, b.Opts, "block-balanced", 0, afresh(b.pruneBalanced))
	}
	return run(clf, train, b.Opts, "block-unbalanced", 0, afresh(b.pruneUnbalanced))
}

// afresh wraps a removal step whose masks are recomputed from scratch each
// round: every mask is reset to dense before remove runs.
func afresh(remove maskStep) maskStep {
	return func(params []*nn.Param, scores saliency.Scores, kappa float64) {
		for _, prm := range params {
			prm.EnsureMask().Fill(1)
		}
		remove(params, scores, kappa)
	}
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
	return run(clf, train, b.Opts, "channel", 0, afresh(pruneChannels))
}

// pruneChannels removes whole rows by ascending score, each row scored by
// its summed weight saliency, keeping minKeepRows rows per layer.
func pruneChannels(params []*nn.Param, scores saliency.Scores, kappa float64) {
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
		sv := scores.MatrixView(prm)
		for r := 0; r < prm.Rows; r++ {
			sum := 0.0
			for c := 0; c < prm.Cols; c++ {
				sum += sv.At(r, c)
			}
			rows = append(rows, rowRef{param: prm, row: r, score: sum})
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
