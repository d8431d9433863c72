package sparsity

import (
	"fmt"
	"slices"

	"repro/internal/tensor"
)

// BlockGrid tiles a rows×cols matrix into B×B blocks; edge blocks may be
// smaller when B does not divide the matrix dimensions.
type BlockGrid struct {
	Rows, Cols, B int
}

// NewBlockGrid validates and constructs the grid.
func NewBlockGrid(rows, cols, b int) BlockGrid {
	if rows <= 0 || cols <= 0 || b <= 0 {
		panic(fmt.Sprintf("sparsity: invalid block grid %dx%d B=%d", rows, cols, b))
	}
	return BlockGrid{Rows: rows, Cols: cols, B: b}
}

// GridRows returns the number of block rows.
func (g BlockGrid) GridRows() int { return (g.Rows + g.B - 1) / g.B }

// GridCols returns the number of block columns.
func (g BlockGrid) GridCols() int { return (g.Cols + g.B - 1) / g.B }

// Bounds returns the half-open element ranges [r0,r1)×[c0,c1) of block
// (br, bc), clamped at the matrix edge.
func (g BlockGrid) Bounds(br, bc int) (r0, r1, c0, c1 int) {
	r0 = br * g.B
	r1 = r0 + g.B
	if r1 > g.Rows {
		r1 = g.Rows
	}
	c0 = bc * g.B
	c1 = c0 + g.B
	if c1 > g.Cols {
		c1 = g.Cols
	}
	return
}

// BlockScores sums scores per block, returning a [GridRows, GridCols]
// tensor. scores must be rank-2 with the grid's matrix shape.
func BlockScores(scores *tensor.Tensor, g BlockGrid) *tensor.Tensor {
	rows, cols := checkMatrix(scores, scores)
	if rows != g.Rows || cols != g.Cols {
		panic(fmt.Sprintf("sparsity: scores %v do not match grid %dx%d", scores.Shape, g.Rows, g.Cols))
	}
	out := tensor.New(g.GridRows(), g.GridCols())
	gc := g.GridCols()
	for r := 0; r < rows; r++ {
		br := r / g.B
		base := r * cols
		for c := 0; c < cols; c++ {
			out.Data[br*gc+c/g.B] += scores.Data[base+c]
		}
	}
	return out
}

// RankColumn is CRISP's pruning unit: removing rank o deletes the o-th
// least-important block from *every* block row of a layer, preserving the
// uniform per-row balance the hardware needs. BlockCols[i] names the block
// column pruned in block row i.
type RankColumn struct {
	// Rank is the 0-based sorted position o within the layer.
	Rank int
	// Score is c_o = Σ over block rows of the o-th smallest block score.
	Score float64
	// BlockCols[i] is the block column selected in block row i.
	BlockCols []int
}

// RankColumns implements lines 6–7 of Algorithm 1: it sorts each block row's
// scores ascending and aggregates the o-th smallest across rows into c_o.
// The result is ordered by rank (and therefore by non-decreasing score). It
// allocates three objects at any grid size: the per-row orders in one
// array, the ranks, and one array every rank's BlockCols is carved from.
func RankColumns(blockScores *tensor.Tensor) []RankColumn {
	gr, gc := checkMatrix(blockScores, blockScores)
	// order[r*gc:(r+1)*gc] is block row r's block columns, ascending by score.
	order := make([]int, gr*gc)
	for r := 0; r < gr; r++ {
		idx := order[r*gc : (r+1)*gc]
		for i := range idx {
			idx[i] = i
		}
		row := blockScores.Data[r*gc : (r+1)*gc]
		// The stable sort asks only whether a sorts before b; answering with
		// < as well keeps a NaN score where sort.SliceStable put it.
		slices.SortStableFunc(idx, func(a, b int) int {
			if row[a] < row[b] {
				return -1
			}
			if row[b] < row[a] {
				return 1
			}
			return 0
		})
	}
	out := make([]RankColumn, gc)
	cols := make([]int, gc*gr)
	for o := range out {
		rc := RankColumn{Rank: o, BlockCols: cols[o*gr : (o+1)*gr : (o+1)*gr]}
		for r := 0; r < gr; r++ {
			bc := order[r*gc+o]
			rc.BlockCols[r] = bc
			rc.Score += blockScores.Data[r*gc+bc]
		}
		out[o] = rc
	}
	return out
}

// PruneRankColumn zeroes the blocks selected by rc in mask.
func PruneRankColumn(mask *tensor.Tensor, g BlockGrid, rc RankColumn) {
	rows, cols := checkMatrix(mask, mask)
	if rows != g.Rows || cols != g.Cols {
		panic(fmt.Sprintf("sparsity: mask %v does not match grid %dx%d", mask.Shape, g.Rows, g.Cols))
	}
	for br, bc := range rc.BlockCols {
		r0, r1, c0, c1 := g.Bounds(br, bc)
		for r := r0; r < r1; r++ {
			for c := c0; c < c1; c++ {
				mask.Data[r*cols+c] = 0
			}
		}
	}
}

// BlockKept reports whether block (br, bc) of mask holds any non-zero.
func BlockKept(mask *tensor.Tensor, g BlockGrid, br, bc int) bool {
	_, cols := checkMatrix(mask, mask)
	r0, r1, c0, c1 := g.Bounds(br, bc)
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; c++ {
			if mask.Data[r*cols+c] != 0 {
				return true
			}
		}
	}
	return false
}

// KeptBlocksPerRow counts, for each block row, how many blocks contain at
// least one non-zero.
func KeptBlocksPerRow(mask *tensor.Tensor, g BlockGrid) []int {
	out := make([]int, g.GridRows())
	for br := range out {
		for bc := 0; bc < g.GridCols(); bc++ {
			if BlockKept(mask, g, br, bc) {
				out[br]++
			}
		}
	}
	return out
}

// VerifyRowBalance returns an error unless every block row of mask keeps
// exactly the same number of non-zero blocks — the load-balancing invariant
// CRISP's accelerator exploits.
func VerifyRowBalance(mask *tensor.Tensor, g BlockGrid) error {
	counts := KeptBlocksPerRow(mask, g)
	for i := 1; i < len(counts); i++ {
		if counts[i] != counts[0] {
			return fmt.Errorf("sparsity: block row %d keeps %d blocks, row 0 keeps %d", i, counts[i], counts[0])
		}
	}
	return nil
}

// HybridSparsity returns the overall sparsity of the paper's formula
// 1 − (K'/K)·(N/M) for a kept-column fraction and N:M pattern.
func HybridSparsity(keptColFraction float64, nm NM) float64 {
	return 1 - keptColFraction*nm.Density()
}
