package format

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Kernel conformance/differential harness. The plan kernel (Plan.MatMul
// and MatMulInto: rowRange fanned out over the worker pool) runs against the
// storage-format kernels a plan is compiled from — the CSR row walk, and the
// CRISP slot walk when the matrix conforms — which share none of its kernel
// code (not its uint16 columns, its row spans or its entry unrolling), only
// the tensor.JobPool fan-out. The shape grid hits every structural edge:
// empty rows, all-padding CRISP spans, spans shorter and longer than the
// four-entry unroll, the uint16 width boundary and the transformer-s
// matrices. Results must be bit-identical.

// bitIdentical reports whether two rank-2 tensors hold exactly the same
// bit patterns (stricter than ==: distinguishes -0 from +0, NaN payloads).
func bitIdentical(t *testing.T, got, want *tensor.Tensor) bool {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("size mismatch: %v vs %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Errorf("bit mismatch at %d: got %x want %x", i,
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			return false
		}
	}
	return true
}

// storagePlan is a compiled plan beside the storage-format kernel it was
// compiled from, which is its reference.
type storagePlan struct {
	src  string
	plan *Plan
	ref  func(*tensor.Tensor) *tensor.Tensor
}

// storagePlans compiles one matrix from each encoding it fits: CSR always,
// and CRISP when blk > 0 and the matrix satisfies the hybrid invariants.
func storagePlans(w *tensor.Tensor, blk int, nm sparsity.NM) []storagePlan {
	c := EncodeCSR(w)
	plans := []storagePlan{{"csr", c.Compile(), c.MatMul}}
	if blk > 0 {
		if e, err := EncodeCRISP(w, blk, nm); err == nil {
			plans = append(plans, storagePlan{"crisp", e.Compile(), e.MatMul})
		}
	}
	return plans
}

// checkAgainstStorage is the conformance contract for one (plan,
// activation) pair: MatMul, and MatMulInto over a NaN-filled buffer, must
// reproduce the storage-format kernel bit for bit. The fuzz target feeds it
// too.
func checkAgainstStorage(t *testing.T, sp storagePlan, x *tensor.Tensor, label string) {
	t.Helper()
	p, n := sp.plan, x.Shape[1]
	want := sp.ref(x)
	if !bitIdentical(t, p.MatMul(x), want) {
		t.Fatalf("%s/%s: MatMul at %dx%d n=%d differs from the storage kernel", label, sp.src, p.Rows, p.Cols, n)
	}
	if !bitIdentical(t, p.MatMulInto(x, tensor.Full(math.NaN(), p.Rows, n)), want) {
		t.Fatalf("%s/%s: MatMulInto at %dx%d n=%d differs from the storage kernel", label, sp.src, p.Rows, p.Cols, n)
	}
}

// edgeColumns returns a rows × MaxCols matrix whose only entries sit in the
// first and the last column a uint16 index reaches.
func edgeColumns(rng *rand.Rand, rows int) *tensor.Tensor {
	w := tensor.New(rows, MaxCols)
	for r := 0; r < rows; r++ {
		w.Data[r*MaxCols] = rng.NormFloat64()
		w.Data[(r+1)*MaxCols-1] = rng.NormFloat64()
	}
	return w
}

// TestKernelConformance is the main differential sweep: every plan source ×
// a shape/batch grid, each plan proven bit-identical to the storage kernel
// it was compiled from. The seventh shape is large enough that batches of
// four and up cross tensor.ParallelThreshold, so on a multi-core host the
// plan and its reference fan out over the pool. The eighth is the uint16
// width boundary (edgeColumns): the CSR reference keeps int32 columns. The
// last four are transformer-s's matrices at its served block size and ~90 %
// sparsity.
func TestKernelConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type shape struct {
		rows, cols int
		blk        int // 0 = CSR-only (arbitrary structure)
		pruned     int // rank columns hybridMatrix prunes
		emptyRows  bool
		edge       bool // edgeColumns' matrix (cols = MaxCols)
	}
	shapes := []shape{
		{rows: 1, cols: 8},
		{rows: 3, cols: 33, emptyRows: true},
		{rows: 64, cols: 128, blk: 4, pruned: 1},
		{rows: 65, cols: 33, emptyRows: true},
		{rows: 8, cols: 16, blk: 4, pruned: 1},
		{rows: 16, cols: 32, blk: 8, pruned: 1},
		{rows: 132, cols: 512, blk: 4, pruned: 1},
		{rows: 2, cols: MaxCols, edge: true},
		{rows: 32, cols: 32, blk: 4, pruned: 6},
		{rows: 64, cols: 32, blk: 4, pruned: 6},
		{rows: 32, cols: 64, blk: 4, pruned: 13},
		{rows: 32, cols: 48, blk: 4, pruned: 10},
	}
	batches := []int{1, 3, 4, 5, 6, 7, 8, 16, 17}
	for _, s := range shapes {
		var w *tensor.Tensor
		switch {
		case s.edge:
			w = edgeColumns(rng, s.rows)
		case s.blk > 0:
			w = hybridMatrix(rng, s.rows, s.cols, s.blk, sparsity.NM{N: 2, M: 4}, s.pruned)
		default:
			w = tensor.Randn(rng, 3, s.rows, s.cols)
			for i := range w.Data {
				if rng.Float64() < 0.6 {
					w.Data[i] = 0
				}
			}
		}
		if s.emptyRows {
			for c := 0; c < s.cols; c++ {
				w.Data[(s.rows/2)*s.cols+c] = 0
			}
		}
		for _, sp := range storagePlans(w, s.blk, sparsity.NM{N: 2, M: 4}) {
			for _, n := range batches {
				checkAgainstStorage(t, sp, tensor.Randn(rng, 1, s.cols, n), "grid")
			}
		}
	}
}

// TestAllPaddingSpans drives the degenerate encoding whose every slot is a
// padding zero: the plan holds no entries at all, and must still produce
// the slot walk's exact zero matrix of the right shape.
func TestAllPaddingSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	w := hybridMatrix(rng, 8, 16, 4, sparsity.NM{N: 2, M: 4}, 1)
	e, err := EncodeCRISP(w, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.Val {
		e.Val[i] = 0
	}
	p := e.Compile()
	if p.NNZ() != 0 {
		t.Fatalf("all-padding encoding compiled to %d entries", p.NNZ())
	}
	x := tensor.Randn(rng, 1, 16, 7)
	for _, v := range e.MatMul(x).Data {
		if v != 0 {
			t.Fatal("slot walk nonzero on an all-padding encoding")
		}
	}
	checkAgainstStorage(t, storagePlan{"crisp", p, e.MatMul}, x, "all-padding")
}

// TestConvPlanDifferential proves the fused implicit-im2col kernel (the
// batch-last layout the engine runs) against the explicit lowering
// (Im2ColInto + the CSR row walk). Equality is |difference| = 0: bit
// patterns may differ only in the sign of all-padding-tap zeros (see
// convplan.go).
func TestConvPlanDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type geom struct {
		inC, kh, kw, stride, pad, inH, inW int
	}
	geoms := []geom{
		{inC: 3, kh: 3, kw: 3, stride: 1, pad: 1, inH: 8, inW: 8},
		{inC: 4, kh: 3, kw: 3, stride: 2, pad: 1, inH: 8, inW: 8},
		{inC: 2, kh: 1, kw: 1, stride: 1, pad: 0, inH: 5, inW: 7},
		{inC: 2, kh: 1, kw: 1, stride: 2, pad: 0, inH: 8, inW: 8},
		{inC: 1, kh: 5, kw: 3, stride: 1, pad: 2, inH: 7, inW: 5},
		{inC: 3, kh: 3, kw: 3, stride: 1, pad: 1, inH: 4, inW: 4},
		{inC: 2, kh: 7, kw: 7, stride: 2, pad: 3, inH: 9, inW: 8},
		{inC: 64, kh: 1, kw: 1, stride: 1, pad: 0, inH: 3, inW: 4},
	}
	for _, gm := range geoms {
		for _, batch := range []int{1, 3, 16} {
			rows := 6
			cols := gm.inC * gm.kh * gm.kw
			w := tensor.Randn(rng, 2, rows, cols)
			for i := range w.Data {
				if rng.Float64() < 0.5 {
					w.Data[i] = 0
				}
			}
			c := EncodeCSR(w)
			p := c.Compile()
			g := tensor.ConvGeom{InC: gm.inC, KH: gm.kh, KW: gm.kw,
				Stride: gm.stride, Pad: gm.pad, InH: gm.inH, InW: gm.inW}
			oh, ow := g.OutH(), g.OutW()
			x := tensor.Randn(rng, 1, batch, gm.inC, gm.inH, gm.inW)
			n := batch * oh * ow

			lowered := tensor.New(cols, n)
			tensor.Im2ColInto(x, g, lowered)
			want := c.MatMul(lowered)

			cp := p.CompileConv(new(ConvPlan), gm.kh, gm.kw, gm.stride, gm.pad)
			chw := gm.inC * gm.inH * gm.inW
			xT := tensor.TransposeInto(x.Reshape(batch, chw), tensor.New(chw, batch))
			outT := cp.MatMulBatchLastInto(xT, g, batch, tensor.New(rows*oh*ow, batch), make([]float64, cp.ClipFloats()))
			// Batch-last output [r·p, b] transposes to [b, r·p]; the
			// lowering's layout is [r, b·p] — compare element-wise.
			back := tensor.TransposeInto(outT, tensor.New(batch, rows*oh*ow))
			for r := 0; r < rows; r++ {
				for b := 0; b < batch; b++ {
					for pix := 0; pix < oh*ow; pix++ {
						gotV := back.Data[b*rows*oh*ow+r*oh*ow+pix]
						wantV := want.Data[r*n+b*oh*ow+pix]
						if gotV != wantV {
							t.Fatalf("batch-last conv %+v batch=%d mismatch at r=%d b=%d pix=%d: got %v want %v",
								gm, batch, r, b, pix, gotV, wantV)
						}
					}
				}
			}
		}
	}
}

// TestConvTapDecode proves the fused kernel's column decode exact: for every
// kernel size KH·KW in 1…64 and every column a uint16 index holds, the
// multiply-shift CompileConv sets up yields (col / KH·KW, col % KH·KW).
func TestConvTapDecode(t *testing.T) {
	for khw := 1; khw <= 64; khw++ {
		cp := (&Plan{Cols: MaxCols / khw * khw}).CompileConv(new(ConvPlan), khw, 1, 1, 0)
		for col := 0; col < MaxCols; col++ {
			if c, kk := cp.tap(uint16(col)); c != col/khw || kk != col%khw {
				t.Fatalf("KH·KW = %d, col %d: decoded (%d, %d), want (%d, %d)", khw, col, c, kk, col/khw, col%khw)
			}
		}
	}
}
