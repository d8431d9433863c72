// Package sparsity implements the mask algebra behind CRISP's hybrid
// structured sparsity: fine-grained N:M masks along the reduction dimension,
// coarse-grained B×B block grids with per-row rank-column pruning, their
// composition, and validators/statistics for every invariant the paper's
// hardware design relies on (N:M validity, uniform non-zero blocks per row).
//
// All functions operate on rank-2 tensors (the [rows=outputs, cols=reduction]
// pruning view of a layer's weights) and are independent of the nn package.
package sparsity

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/tensor"
)

// NM is a fine-grained N:M sparsity pattern: at most N non-zeros in every
// group of M consecutive elements along a matrix row.
type NM struct {
	N, M int
}

// Validate reports whether the pattern is well-formed.
func (nm NM) Validate() error {
	if nm.M <= 0 || nm.N <= 0 || nm.N > nm.M {
		return fmt.Errorf("sparsity: invalid N:M pattern %d:%d", nm.N, nm.M)
	}
	return nil
}

// ParseNM parses a pattern written "N:M" (e.g. "2:4") and validates it.
func ParseNM(s string) (NM, error) {
	ns, ms, ok := strings.Cut(s, ":")
	if !ok {
		return NM{}, fmt.Errorf("sparsity: bad N:M %q (want like 2:4)", s)
	}
	n, err := strconv.Atoi(ns)
	if err != nil {
		return NM{}, fmt.Errorf("sparsity: bad N in %q: %v", s, err)
	}
	m, err := strconv.Atoi(ms)
	if err != nil {
		return NM{}, fmt.Errorf("sparsity: bad M in %q: %v", s, err)
	}
	nm := NM{N: n, M: m}
	return nm, nm.Validate()
}

// Density returns N/M, the kept fraction under the pattern.
func (nm NM) Density() float64 { return float64(nm.N) / float64(nm.M) }

// String implements fmt.Stringer ("2:4").
func (nm NM) String() string { return fmt.Sprintf("%d:%d", nm.N, nm.M) }

// ApplyNM writes an N:M mask into mask: within every group of M consecutive
// elements of each row of scores, the N highest-scoring positions are kept
// (set to 1) and the rest zeroed; of equal scores the leftmost wins. Partial
// trailing groups of size s keep min(N, s) elements. mask and scores must be
// rank-2 with equal shapes.
func ApplyNM(mask, scores *tensor.Tensor, nm NM) {
	if err := nm.Validate(); err != nil {
		panic(err)
	}
	rows, cols := checkMatrix(mask, scores)
	// order is one group's positions in stable descending score order,
	// built by insertion: the call's one allocation, however many groups.
	order := make([]int, 0, nm.M)
	for r := 0; r < rows; r++ {
		row, out := scores.Data[r*cols:(r+1)*cols], mask.Data[r*cols:(r+1)*cols]
		for g0 := 0; g0 < cols; g0 += nm.M {
			order = order[:0]
			for i := g0; i < min(g0+nm.M, cols); i++ {
				j := len(order)
				order = append(order, i)
				for ; j > 0 && row[i] > row[order[j-1]]; j-- {
					order[j] = order[j-1]
				}
				order[j] = i
			}
			for k, i := range order {
				if k < nm.N {
					out[i] = 1
				} else {
					out[i] = 0
				}
			}
		}
	}
}

// VerifyNM returns an error when any row group of mask holds more than N
// non-zeros per M consecutive elements.
func VerifyNM(mask *tensor.Tensor, nm NM) error {
	if err := nm.Validate(); err != nil {
		return err
	}
	rows, cols := checkMatrix(mask, mask)
	for r := 0; r < rows; r++ {
		base := r * cols
		for g0 := 0; g0 < cols; g0 += nm.M {
			g1 := g0 + nm.M
			if g1 > cols {
				g1 = cols
			}
			nz := 0
			for i := g0; i < g1; i++ {
				if mask.Data[base+i] != 0 {
					nz++
				}
			}
			if nz > nm.N {
				return fmt.Errorf("sparsity: row %d group [%d,%d) has %d non-zeros, pattern %s", r, g0, g1, nz, nm)
			}
		}
	}
	return nil
}

// checkMatrix validates that a and b are rank-2 with identical shapes and
// returns (rows, cols).
func checkMatrix(a, b *tensor.Tensor) (int, int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("sparsity: rank-2 tensors required, got %v and %v", a.Shape, b.Shape))
	}
	if a.Shape[0] != b.Shape[0] || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("sparsity: shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1]
}
