package sparsity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// density is the fraction of non-zero entries in a non-empty mask.
func density(mask *tensor.Tensor) float64 {
	return float64(mask.CountNonZero()) / float64(mask.Len())
}

func TestNMValidate(t *testing.T) {
	if err := (NM{2, 4}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []NM{{0, 4}, {5, 4}, {1, 0}, {-1, 4}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("pattern %v accepted", bad)
		}
	}
}

func TestParseNM(t *testing.T) {
	for _, c := range []struct {
		in   string
		want NM
		ok   bool
	}{
		{"2:4", NM{2, 4}, true},
		{"1:1", NM{1, 1}, true},
		{"2", NM{}, false},
		{"a:4", NM{}, false},
		{"2:b", NM{}, false},
		{"5:4", NM{}, false},
		{"0:4", NM{}, false},
	} {
		got, err := ParseNM(c.in)
		if (err == nil) != c.ok {
			t.Fatalf("ParseNM(%q) error %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseNM(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestApplyNMKeepsTopScores(t *testing.T) {
	scores := tensor.FromSlice([]float64{
		4, 1, 3, 2, 9, 8, 7, 6,
	}, 1, 8)
	mask := tensor.New(1, 8)
	ApplyNM(mask, scores, NM{2, 4})
	want := []float64{1, 0, 1, 0, 1, 1, 0, 0}
	for i, w := range want {
		if mask.Data[i] != w {
			t.Fatalf("mask[%d] = %v, want %v (mask %v)", i, mask.Data[i], w, mask.Data)
		}
	}
}

func TestApplyNMPartialGroup(t *testing.T) {
	// 6 columns with M=4: trailing group of 2 keeps min(N=2, 2)=2.
	scores := tensor.FromSlice([]float64{5, 1, 2, 3, 9, 8}, 1, 6)
	mask := tensor.New(1, 6)
	ApplyNM(mask, scores, NM{2, 4})
	if mask.Data[4] != 1 || mask.Data[5] != 1 {
		t.Fatalf("partial group mishandled: %v", mask.Data)
	}
	if err := VerifyNM(mask, NM{2, 4}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyNM1of4Density(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scores := tensor.Randn(rng, 1, 8, 16)
	mask := tensor.New(8, 16)
	ApplyNM(mask, scores, NM{1, 4})
	if d := density(mask); d != 0.25 {
		t.Fatalf("1:4 density = %v, want 0.25", d)
	}
	if err := VerifyNM(mask, NM{1, 4}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyNMDetectsViolation(t *testing.T) {
	mask := tensor.Full(1, 1, 4) // 4 non-zeros in one group
	if err := VerifyNM(mask, NM{2, 4}); err == nil {
		t.Fatal("violation not detected")
	}
}

// Property: ApplyNM always yields a valid N:M mask with exact density when
// cols is a multiple of M.
func TestApplyNMValidProperty(t *testing.T) {
	f := func(seed int64, nRaw, rowsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%4 + 1 // 1..4
		rows := int(rowsRaw)%6 + 1
		cols := 4 * (int(seed&3) + 2) // multiple of 4
		nm := NM{N: n, M: 4}
		scores := tensor.Randn(rng, 1, rows, cols)
		mask := tensor.New(rows, cols)
		ApplyNM(mask, scores, nm)
		if VerifyNM(mask, nm) != nil {
			return false
		}
		return math.Abs(density(mask)-nm.Density()) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockGridGeometry(t *testing.T) {
	g := NewBlockGrid(10, 14, 4)
	if g.GridRows() != 3 || g.GridCols() != 4 {
		t.Fatalf("grid %dx%d, want 3x4", g.GridRows(), g.GridCols())
	}
	r0, r1, c0, c1 := g.Bounds(2, 3)
	if r0 != 8 || r1 != 10 || c0 != 12 || c1 != 14 {
		t.Fatalf("edge block bounds %d %d %d %d", r0, r1, c0, c1)
	}
}

func TestBlockScoresSums(t *testing.T) {
	scores := tensor.FromSlice([]float64{
		1, 2, 10, 20,
		3, 4, 30, 40,
	}, 2, 4)
	bs := BlockScores(scores, NewBlockGrid(2, 4, 2))
	if bs.At(0, 0) != 10 || bs.At(0, 1) != 100 {
		t.Fatalf("block scores %v", bs.Data)
	}
}

func TestRankColumnsOrderingAndScores(t *testing.T) {
	// Two block rows, three block columns.
	bs := tensor.FromSlice([]float64{
		5, 1, 3,
		2, 9, 4,
	}, 2, 3)
	rcs := RankColumns(bs)
	if len(rcs) != 3 {
		t.Fatalf("rank count %d", len(rcs))
	}
	// Rank 0: row0 picks col1 (1), row1 picks col0 (2) → score 3.
	if rcs[0].Score != 3 || rcs[0].BlockCols[0] != 1 || rcs[0].BlockCols[1] != 0 {
		t.Fatalf("rank0 = %+v", rcs[0])
	}
	// Rank 1: row0 col2 (3), row1 col2 (4) → 7.
	if rcs[1].Score != 7 || rcs[1].BlockCols[0] != 2 || rcs[1].BlockCols[1] != 2 {
		t.Fatalf("rank1 = %+v", rcs[1])
	}
	// Rank 2: row0 col0 (5), row1 col1 (9) → 14.
	if rcs[2].Score != 14 {
		t.Fatalf("rank2 = %+v", rcs[2])
	}
	// Monotone scores.
	for i := 1; i < len(rcs); i++ {
		if rcs[i].Score < rcs[i-1].Score {
			t.Fatal("rank scores not monotone")
		}
	}
}

func TestPruneRankColumnBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows, cols, b := 8, 12, 4
	mask := tensor.Full(1, rows, cols)
	scores := tensor.Randn(rng, 1, rows, cols)
	for i := range scores.Data {
		scores.Data[i] = math.Abs(scores.Data[i])
	}
	g := NewBlockGrid(rows, cols, b)
	bs := BlockScores(scores, g)
	rcs := RankColumns(bs)
	PruneRankColumn(mask, g, rcs[0])
	counts := KeptBlocksPerRow(mask, g)
	for _, c := range counts {
		if c != 2 { // 3 block cols - 1 pruned
			t.Fatalf("kept per row %v, want 2", counts)
		}
	}
	if err := VerifyRowBalance(mask, g); err != nil {
		t.Fatal(err)
	}
	if f := keptBlockFraction(mask, g); math.Abs(f-2.0/3.0) > 1e-12 {
		t.Fatalf("kept fraction %v", f)
	}
}

// Property: pruning any prefix of rank columns preserves row balance.
func TestRankPrefixBalanceProperty(t *testing.T) {
	f := func(seed int64, prefixRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, b := 12, 20, 4
		g := NewBlockGrid(rows, cols, b)
		scores := tensor.Randn(rng, 1, rows, cols)
		mask := tensor.Full(1, rows, cols)
		bs := BlockScores(scores, g)
		rcs := RankColumns(bs)
		prefix := int(prefixRaw) % (len(rcs) + 1)
		for i := 0; i < prefix; i++ {
			PruneRankColumn(mask, g, rcs[i])
		}
		if VerifyRowBalance(mask, g) != nil {
			return false
		}
		counts := KeptBlocksPerRow(mask, g)
		return counts[0] == g.GridCols()-prefix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank columns within one layer never prune the same block twice.
func TestRankColumnsDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := tensor.Randn(rng, 1, 5, 7)
		rcs := RankColumns(bs)
		for r := 0; r < 5; r++ {
			seen := map[int]bool{}
			for _, rc := range rcs {
				if seen[rc.BlockCols[r]] {
					return false
				}
				seen[rc.BlockCols[r]] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// keptBlockFraction is the fraction of grid blocks holding at least one
// non-zero: K'/K when every block row keeps the same count.
func keptBlockFraction(mask *tensor.Tensor, g BlockGrid) float64 {
	kept := 0
	for _, c := range KeptBlocksPerRow(mask, g) {
		kept += c
	}
	return float64(kept) / float64(g.GridRows()*g.GridCols())
}

func TestHybridCompose(t *testing.T) {
	// N:M then block prune: result satisfies N:M everywhere and balance.
	rng := rand.New(rand.NewSource(3))
	rows, cols, b := 8, 16, 4
	nm := NM{2, 4}
	scores := tensor.Randn(rng, 1, rows, cols)
	for i := range scores.Data {
		scores.Data[i] = math.Abs(scores.Data[i])
	}
	mask := tensor.New(rows, cols)
	ApplyNM(mask, scores, nm)
	g := NewBlockGrid(rows, cols, b)
	masked := tensor.Mul(scores, mask)
	bs := BlockScores(masked, g)
	rcs := RankColumns(bs)
	PruneRankColumn(mask, g, rcs[0])
	PruneRankColumn(mask, g, rcs[1])
	if err := VerifyNM(mask, nm); err != nil {
		t.Fatalf("hybrid mask violates N:M: %v", err)
	}
	if err := VerifyRowBalance(mask, g); err != nil {
		t.Fatalf("hybrid mask violates balance: %v", err)
	}
	// Overall sparsity matches the paper's formula 1-(K'/K)(N/M).
	kept := keptBlockFraction(mask, g)
	want := HybridSparsity(kept, nm)
	got := 1 - density(mask)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("sparsity %v, formula %v", got, want)
	}
}

func TestHybridSparsityFormula(t *testing.T) {
	// Paper Sec III-A: sparsity = 1 − (K'/K)·(N/M).
	if s := HybridSparsity(0.5, NM{2, 4}); s != 0.75 {
		t.Fatalf("HybridSparsity = %v, want 0.75", s)
	}
	if s := HybridSparsity(1, NM{4, 4}); s != 0 {
		t.Fatalf("dense = %v", s)
	}
}
