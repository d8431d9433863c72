package sparsity

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// rankColumnsSliceStable is RankColumns as it was: one order slice, one
// sort.SliceStable and one BlockCols slice per row or rank. The pruned masks
// every pinned training run rests on were ranked by it.
func rankColumnsSliceStable(blockScores *tensor.Tensor) []RankColumn {
	gr, gc := checkMatrix(blockScores, blockScores)
	order := make([][]int, gr)
	for r := 0; r < gr; r++ {
		idx := make([]int, gc)
		for i := range idx {
			idx[i] = i
		}
		row := blockScores.Data[r*gc : (r+1)*gc]
		sort.SliceStable(idx, func(a, b int) bool { return row[idx[a]] < row[idx[b]] })
		order[r] = idx
	}
	out := make([]RankColumn, gc)
	for o := 0; o < gc; o++ {
		rc := RankColumn{Rank: o, BlockCols: make([]int, gr)}
		for r := 0; r < gr; r++ {
			bc := order[r][o]
			rc.BlockCols[r] = bc
			rc.Score += blockScores.Data[r*gc+bc]
		}
		out[o] = rc
	}
	return out
}

// TestRankColumnsMatchesSliceStable: tie-heavy scores, NaNs, infinities and
// signed zeros, on grids narrower and wider than the stable sort's
// insertion-sort blocks, rank exactly as the sort.SliceStable form did —
// same block columns, bit-equal scores.
func TestRankColumnsMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	levels := []float64{0, 0, 0, 1, 1, 2, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0.5}
	for _, shape := range [][2]int{{1, 1}, {3, 7}, {5, 20}, {4, 45}, {9, 64}} {
		for _, tied := range []bool{true, false} {
			scores := tensor.New(shape[0], shape[1])
			for i := range scores.Data {
				if tied {
					scores.Data[i] = levels[rng.Intn(len(levels))]
				} else {
					scores.Data[i] = rng.NormFloat64()
				}
			}
			got, want := RankColumns(scores), rankColumnsSliceStable(scores)
			if !slices.EqualFunc(got, want, func(a, b RankColumn) bool {
				return a.Rank == b.Rank && slices.Equal(a.BlockCols, b.BlockCols) &&
					math.Float64bits(a.Score) == math.Float64bits(b.Score)
			}) {
				t.Fatalf("%v (tied %v): ranks differ from the sort.SliceStable form\nscores %v\ngot  %v\nwant %v", shape, tied, scores.Data, got, want)
			}
			for _, rc := range got {
				if cap(rc.BlockCols) != len(rc.BlockCols) {
					t.Fatalf("%v: rank %d's BlockCols has cap %d for len %d", shape, rc.Rank, cap(rc.BlockCols), len(rc.BlockCols))
				}
			}
		}
	}
}

// TestRankColumnsAllocs: a ranking allocates the same few objects at 4 and
// at 64 block rows — the orders, the ranks and one BlockCols array — not
// one order, one sort and one BlockCols slice per row or rank.
func TestRankColumnsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(44))
	var objects [2]float64
	for i, rows := range []int{4, 64} {
		scores := tensor.Randn(rng, 1, rows, 36)
		objects[i] = testing.AllocsPerRun(10, func() { RankColumns(scores) })
	}
	t.Logf("%.0f objects at 4 block rows, %.0f at 64", objects[0], objects[1])
	if objects[0] != objects[1] || objects[0] > 3 {
		t.Fatalf("RankColumns allocates %.0f objects at 4 block rows and %.0f at 64, want the same, at most 3", objects[0], objects[1])
	}
}
