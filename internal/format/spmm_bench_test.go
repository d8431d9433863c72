package format_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/format"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// benchHybridMatrix builds a CRISP-invariant sparse matrix for the format
// and kernel benchmarks.
func benchHybridMatrix(rows, cols, blk int, nm sparsity.NM) *tensor.Tensor {
	rng := rand.New(rand.NewSource(2))
	scores := tensor.New(rows, cols)
	for i := range scores.Data {
		scores.Data[i] = math.Abs(rng.NormFloat64()) + 0.01
	}
	mask := tensor.New(rows, cols)
	sparsity.ApplyNM(mask, scores, nm)
	g := sparsity.NewBlockGrid(rows, cols, blk)
	rcs := sparsity.RankColumns(sparsity.BlockScores(tensor.Mul(scores, mask), g))
	for i := 0; i < g.GridCols()/2; i++ {
		sparsity.PruneRankColumn(mask, g, rcs[i])
	}
	w := tensor.Randn(rng, 1, rows, cols)
	w.MulInPlace(mask)
	return w
}

// BenchmarkSpMM_CRISPFormat measures the CRISP-format sparse kernel.
func BenchmarkSpMM_CRISPFormat(b *testing.B) {
	b.ReportAllocs()
	nm := sparsity.NM{N: 2, M: 4}
	w := benchHybridMatrix(128, 512, 16, nm)
	e, err := format.EncodeCRISP(w, 16, nm)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MatMul(x)
	}
}

// BenchmarkSpMM_CSR measures the CSR sparse kernel on the same matrix.
func BenchmarkSpMM_CSR(b *testing.B) {
	b.ReportAllocs()
	w := benchHybridMatrix(128, 512, 16, sparsity.NM{N: 2, M: 4})
	e := format.EncodeCSR(w)
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MatMul(x)
	}
}
