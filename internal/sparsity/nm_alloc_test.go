package sparsity

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// applyNMSorted is ApplyNM as it was: one sort.Slice per group. The pruned
// masks every pinned training run rests on were chosen by it, so the
// in-place selection is held to it bit for bit at every M it sorted by
// insertion (M ≤ 12: sort.Slice's small-slice path, stable).
func applyNMSorted(mask, scores *tensor.Tensor, nm NM) {
	rows, cols := checkMatrix(mask, scores)
	type idxScore struct {
		idx   int
		score float64
	}
	for r := 0; r < rows; r++ {
		base := r * cols
		for g0 := 0; g0 < cols; g0 += nm.M {
			var group []idxScore
			for i := g0; i < min(g0+nm.M, cols); i++ {
				group = append(group, idxScore{i, scores.Data[base+i]})
			}
			sort.Slice(group, func(a, b int) bool { return group[a].score > group[b].score })
			for k, gs := range group {
				if k < nm.N {
					mask.Data[base+gs.idx] = 1
				} else {
					mask.Data[base+gs.idx] = 0
				}
			}
		}
	}
}

// TestApplyNMMatchesSortSlice: tie-heavy scores (a pruned layer's are mostly
// equal zeros), NaNs, infinities and ragged trailing groups, at every
// pattern up to M = 12.
func TestApplyNMMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	levels := []float64{0, 0, 0, 1, 1, 2, -1, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for m := 1; m <= 12; m++ {
		for n := 1; n <= m; n++ {
			for _, cols := range []int{m, 3*m + 1, 4*m - 1, 37} {
				scores := tensor.New(5, cols)
				for i := range scores.Data {
					scores.Data[i] = levels[rng.Intn(len(levels))]
				}
				got, want := tensor.New(5, cols), tensor.New(5, cols)
				got.Fill(7) // every entry must be written
				ApplyNM(got, scores, NM{n, m})
				applyNMSorted(want, scores, NM{n, m})
				if !slices.Equal(got.Data, want.Data) {
					t.Fatalf("%d:%d over %d columns: mask differs from the sort.Slice form\nscores %v\ngot  %v\nwant %v", n, m, cols, scores.Data, got.Data, want.Data)
				}
			}
		}
	}
}

// TestApplyNMAllocs: one allocation a call, not three a group.
func TestApplyNMAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(42))
	scores := tensor.Randn(rng, 1, 64, 144)
	mask := tensor.New(64, 144)
	if objects := testing.AllocsPerRun(10, func() { ApplyNM(mask, scores, NM{2, 4}) }); objects > 1 {
		t.Fatalf("ApplyNM allocates %.0f objects over %d groups, want at most 1", objects, 64*144/4)
	}
}
