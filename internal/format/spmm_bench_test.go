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
// and kernel benchmarks: nm within every block row, then the given share of
// block columns pruned by rank.
func benchHybridMatrix(rows, cols, blk int, nm sparsity.NM, prunedShare float64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(2))
	scores := tensor.New(rows, cols)
	for i := range scores.Data {
		scores.Data[i] = math.Abs(rng.NormFloat64()) + 0.01
	}
	mask := tensor.New(rows, cols)
	sparsity.ApplyNM(mask, scores, nm)
	g := sparsity.NewBlockGrid(rows, cols, blk)
	rcs := sparsity.RankColumns(sparsity.BlockScores(tensor.Mul(scores, mask), g))
	for i := 0; i < int(prunedShare*float64(g.GridCols())); i++ {
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
	w := benchHybridMatrix(128, 512, 16, nm, 0.5)
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
	w := benchHybridMatrix(128, 512, 16, sparsity.NM{N: 2, M: 4}, 0.5)
	e := format.EncodeCSR(w)
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MatMul(x)
	}
}

// The served-kernel benchmarks time the three kernels a served engine runs,
// at a width-2 resnet-s stage-2 conv's shape: 64 output channels over 64
// input channels of 3×3 taps (576 columns, three 256-column plan segments a
// row), ~10 % dense (2:4 within blocks, 80 % of the block columns pruned),
// at the bench's batch of 16 on a 4×4 feature map. Each warms its scratch
// and the kernel pool before timing, so it reports 0 allocs/op: the count
// TestFanOutAllocatesNothing holds exactly at a smaller shape.
const (
	servedRows, servedInC, servedHW, servedBatch = 64, 64, 4, 16
	servedCols                                   = servedInC * 9
)

// servedPlan compiles the served shape's weight matrix.
func servedPlan(b *testing.B) *format.Plan {
	w := benchHybridMatrix(servedRows, servedCols, 4, sparsity.NM{N: 2, M: 4}, 0.8)
	p := format.EncodeCSR(w).Compile()
	if d := float64(p.NNZ()) / (servedRows * servedCols); d < 0.08 || d > 0.12 {
		b.Fatalf("served plan density %.3f, want ~0.10", d)
	}
	return p
}

// runServed times call after one warm-up call.
func runServed(b *testing.B, call func()) {
	b.ReportAllocs()
	call()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// BenchmarkSpMM_ServedPlan times the float plan kernel, Plan.MatMulInto.
func BenchmarkSpMM_ServedPlan(b *testing.B) {
	p := servedPlan(b)
	x := tensor.Randn(rand.New(rand.NewSource(3)), 1, servedCols, servedBatch)
	out := tensor.New(servedRows, servedBatch)
	runServed(b, func() { p.MatMulInto(x, out) })
}

// BenchmarkSpMM_ServedQuant times the int8 kernel, QuantPlan.MatMulInto.
func BenchmarkSpMM_ServedQuant(b *testing.B) {
	q, err := servedPlan(b).Quantize()
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(3)), 1, servedCols, servedBatch)
	out := tensor.New(servedRows, servedBatch)
	s := q.Scratch(servedBatch)
	runServed(b, func() { q.MatMulInto(x, out, s) })
}

// BenchmarkSpMM_ServedConv times the batch-last implicit-im2col conv
// kernel, ConvPlan.MatMulBatchLastInto.
func BenchmarkSpMM_ServedConv(b *testing.B) {
	cp := servedPlan(b).CompileConv(new(format.ConvPlan), 3, 3, 1, 1)
	g := tensor.ConvGeom{InC: servedInC, InH: servedHW, InW: servedHW, KH: 3, KW: 3, Stride: 1, Pad: 1}
	xT := tensor.Randn(rand.New(rand.NewSource(3)), 1, servedInC*servedHW*servedHW, servedBatch)
	out := tensor.New(servedRows*g.OutH()*g.OutW(), servedBatch)
	clips := make([]float64, cp.ClipFloats())
	runServed(b, func() { cp.MatMulBatchLastInto(xT, g, servedBatch, out, clips) })
}
