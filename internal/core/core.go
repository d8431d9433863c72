// Package core implements the paper's primary contribution in its purest
// form: construction of the CRISP hybrid structured sparsity mask. Given
// per-layer importance scores, it (a) writes fine-grained N:M masks along
// the reduction dimension, (b) scores B×B blocks by surviving importance,
// (c) aggregates per-row sorted block scores into rank columns (Algorithm 1
// lines 5–7), and (d) greedily prunes globally ranked rank columns until a
// target sparsity is met (lines 8–10) — preserving the uniform
// blocks-per-row invariant the CRISP-STC hardware requires.
//
// The package operates on plain tensors only; internal/pruner layers the
// training loop (fine-tuning, saliency estimation, schedules) on top.
package core

import (
	"fmt"
	"sort"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Config parameterizes hybrid mask construction.
type Config struct {
	// NM is the fine-grained pattern. Use N == M (e.g. {1,1}) to disable
	// N:M sparsity and obtain pure balanced block pruning.
	NM sparsity.NM
	// BlockSize is the coarse block edge B.
	BlockSize int
	// MinKeepBlockCols floors the kept rank columns per layer (≥1 guards
	// against layer collapse).
	MinKeepBlockCols int
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	if err := c.NM.Validate(); err != nil {
		return err
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("core: non-positive block size %d", c.BlockSize)
	}
	if c.MinKeepBlockCols < 1 {
		return fmt.Errorf("core: MinKeepBlockCols %d must be ≥1", c.MinKeepBlockCols)
	}
	return nil
}

// Layer is one prunable weight matrix in the global pool. Mask is written
// in place; Scores provides the (non-negative) importance of each element.
type Layer struct {
	// ID names the layer in diagnostics.
	ID string
	// Mask is the rows×cols {0,1} mask, rewritten by ApplyHybrid.
	Mask *tensor.Tensor
	// Scores is the rows×cols importance tensor (e.g. the class-aware
	// saliency score).
	Scores *tensor.Tensor
	// BlockExempt restricts the layer to N:M pruning only (e.g. tiny
	// depthwise kernels).
	BlockExempt bool
}

// candidate is one (layer, rank) pruning unit in the global pool.
type candidate struct {
	layer *Layer
	grid  sparsity.BlockGrid
	rc    sparsity.RankColumn
	cost  int
}

// ApplyHybrid rewrites every layer's mask with the hybrid pattern and
// prunes rank columns globally until the overall sparsity reaches kappa
// (or the candidate pool is exhausted). It returns the achieved sparsity.
//
// Both invariants hold on return for every non-exempt layer: VerifyNM and
// VerifyRowBalance succeed (property-tested in core_test.go).
func ApplyHybrid(layers []*Layer, cfg Config, kappa float64) float64 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	total, nonzero := 0, 0
	var cands []candidate
	for _, l := range layers {
		rows, cols := l.Mask.Shape[0], l.Mask.Shape[1]
		// Line 2 of Algorithm 1: fine-grained N:M from the scores.
		sparsity.ApplyNM(l.Mask, l.Scores, cfg.NM)
		total += l.Mask.Len()
		nonzero += l.Mask.CountNonZero()
		if l.BlockExempt {
			continue
		}
		g := sparsity.NewBlockGrid(rows, cols, cfg.BlockSize)
		if g.GridCols() <= cfg.MinKeepBlockCols {
			continue
		}
		// Line 5: block scores over the surviving (post-N:M) importance.
		masked := tensor.Mul(l.Scores, l.Mask)
		bs := sparsity.BlockScores(masked, g)
		// Lines 6–7: per-row ascending sort and rank aggregation.
		rcs := sparsity.RankColumns(bs)
		for i := 0; i < len(rcs)-cfg.MinKeepBlockCols; i++ {
			cands = append(cands, candidate{
				layer: l,
				grid:  g,
				rc:    rcs[i],
				cost:  rankCost(l.Mask, g, rcs[i]),
			})
		}
	}
	if total == 0 {
		return 0
	}
	// Line 8: global ascending ranking. Rank scores are monotone within a
	// layer, so a stable sort preserves the required prefix order.
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].rc.Score < cands[b].rc.Score })

	// Lines 9–10: greedy selection until the sparsity target.
	targetNonzero := int((1 - kappa) * float64(total))
	for _, cd := range cands {
		if nonzero <= targetNonzero {
			break
		}
		sparsity.PruneRankColumn(cd.layer.Mask, cd.grid, cd.rc)
		nonzero -= cd.cost
	}
	return 1 - float64(nonzero)/float64(total)
}

// rankCost counts the non-zero mask entries a rank column would remove.
func rankCost(mask *tensor.Tensor, g sparsity.BlockGrid, rc sparsity.RankColumn) int {
	cols := mask.Shape[1]
	cost := 0
	for br, bc := range rc.BlockCols {
		r0, r1, c0, c1 := g.Bounds(br, bc)
		for r := r0; r < r1; r++ {
			for cc := c0; cc < c1; cc++ {
				if mask.Data[r*cols+cc] != 0 {
					cost++
				}
			}
		}
	}
	return cost
}
