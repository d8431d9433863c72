package format

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Kernel conformance/differential harness. Every float kernel path — the
// public dispatch (whichever way blockedAuto sends the call) and the
// blocked driver at ragged and default row-chunk sizes — runs against the
// scalar reference kernel over a shape grid chosen to hit every structural
// edge: ragged row chunks, batch widths straddling the 8/4/1-column
// panels, empty rows, all-padding CRISP spans, uniform-span CRISP plans
// (the fixed-trip-count fast path). Results must be bit-identical.

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

// conformanceRowTiles are the row-chunk sizes the harness drives
// matmulBlocked at: single-row chunks, a ragged size that misaligns with
// every shape in the grid, and the production default.
var conformanceRowTiles = []int{1, 3, defaultRowTile}

// scalarRef runs the scalar reference kernel directly, bypassing dispatch.
func scalarRef(p *Plan, x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[1]
	want := tensor.New(p.Rows, n)
	p.matmulScalar(x, want, n)
	return want
}

// checkAgainstScalar is the conformance contract for one (plan, activation)
// pair: the public dispatch and matmulBlocked at every conformance chunk
// size must reproduce the scalar reference bit for bit. The fuzz target
// and the dispatch table feed it too.
func checkAgainstScalar(t *testing.T, p *Plan, x *tensor.Tensor, label string) {
	t.Helper()
	n := x.Shape[1]
	want := scalarRef(p, x)
	if !bitIdentical(t, p.MatMul(x), want) {
		t.Fatalf("%s: dispatch at %dx%d n=%d differs from scalar reference", label, p.Rows, p.Cols, n)
	}
	for _, rt := range conformanceRowTiles {
		got := tensor.New(p.Rows, n)
		p.matmulBlocked(x, got, n, rt)
		if !bitIdentical(t, got, want) {
			t.Fatalf("%s: blocked (row chunk %d) at %dx%d n=%d differs from scalar reference", label, rt, p.Rows, p.Cols, n)
		}
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

// conformancePlans builds the plan corpus for one matrix: the CSR compile,
// and — when the matrix satisfies the hybrid invariants — the CRISP
// compile (which may prove uniform spans).
func conformancePlans(w *tensor.Tensor, blk int, nm sparsity.NM) map[string]*Plan {
	plans := map[string]*Plan{"csr": EncodeCSR(w).Compile()}
	if blk > 0 {
		if e, err := EncodeCRISP(w, blk, nm); err == nil {
			plans["crisp"] = e.Compile()
		}
	}
	return plans
}

// TestKernelConformance is the main differential sweep: every kernel path
// × every plan source × a shape/batch grid, all proven bit-identical to
// the scalar reference. The batch grid holds every width of the one-pass
// regime (n = 4…7 run spanPanel4 plus the tail kernel, n = 8 spanPanel8)
// and widths on both sides of it; the seventh shape is large enough that
// batches of four and up cross tensor.ParallelThreshold, so on a multi-core
// host the chunk sizes also partition the pool fan-out differently. The
// last is the uint16 width boundary (edgeColumns), also held to the dense
// product: the scalar reference shares its column load with every path.
func TestKernelConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type shape struct {
		rows, cols int
		blk        int // 0 = CSR-only (arbitrary structure)
		emptyRows  bool
		edge       bool // edgeColumns' matrix (cols = MaxCols)
	}
	shapes := []shape{
		{rows: 1, cols: 8},
		{rows: 3, cols: 33, emptyRows: true},
		{rows: 64, cols: 128, blk: 4},
		{rows: 65, cols: 33, emptyRows: true},
		{rows: 8, cols: 16, blk: 4},
		{rows: 16, cols: 32, blk: 8},
		{rows: 132, cols: 512, blk: 4},
		{rows: 2, cols: MaxCols, edge: true},
	}
	batches := []int{1, 3, 4, 5, 6, 7, 8, 16, 17}
	for _, s := range shapes {
		var w *tensor.Tensor
		switch {
		case s.edge:
			w = edgeColumns(rng, s.rows)
		case s.blk > 0:
			w = hybridMatrix(rng, s.rows, s.cols, s.blk, sparsity.NM{N: 2, M: 4}, 1)
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
		for src, p := range conformancePlans(w, s.blk, sparsity.NM{N: 2, M: 4}) {
			for _, n := range batches {
				x := tensor.Randn(rng, 1, s.cols, n)
				checkAgainstScalar(t, p, x, src)
				if s.edge && !tensor.Equal(p.MatMul(x), tensor.MatMul(w, x), 1e-12) {
					t.Fatalf("%s: %dx%d n=%d differs from the dense product", src, s.rows, s.cols, n)
				}
			}
		}
	}
}

// TestUniformSpanFastPath pins the CRISP-metadata specialization: an
// encoding with no surviving padding slots must compile to a uniform plan
// (blockedTileUniform eligible), one with a dropped zero must not — and
// both must stay bit-identical to scalar on every kernel path.
func TestUniformSpanFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := hybridMatrix(rng, 16, 32, 4, sparsity.NM{N: 2, M: 4}, 1)
	e, err := EncodeCRISP(w, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := e.Compile()
	if p.uniform == 0 {
		t.Fatal("fully dense-slot CRISP encoding should compile to uniform spans")
	}
	x := tensor.Randn(rng, 1, 32, 9)
	checkAgainstScalar(t, p, x, "uniform")

	// Zero one stored value: the padding slot disappears from the plan, the
	// spans go ragged, and Compile must not claim uniformity.
	e.Val[0] = 0
	rp := e.Compile()
	if rp.uniform != 0 {
		t.Fatal("ragged spans misdetected as uniform")
	}
	checkAgainstScalar(t, rp, x, "ragged")
}

// TestAllPaddingSpans drives the degenerate encoding whose every slot is a
// padding zero: the plan holds no entries at all, and every kernel path
// must still produce an exact zero matrix of the right shape.
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
	for _, v := range scalarRef(p, x).Data {
		if v != 0 {
			t.Fatal("scalar reference nonzero on empty plan")
		}
	}
	checkAgainstScalar(t, p, x, "all-padding")
}

// TestKernelDispatch holds the one dispatch rule (blockedAuto): the blocked
// path takes exactly the cache-resident one-panel-pass calls — 4 ≤ n ≤ 8
// with Cols·n·8 ≤ blockedActBudget — and everything else is scalar. Each
// row also goes through the conformance contract, so the shapes on both
// sides of every boundary are proven bit-identical as dispatched.
func TestKernelDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	overBudget := blockedActBudget/(8*blockedPanelWidth) + 1 // smallest Cols over budget at n = 8
	for _, c := range []struct {
		cols, n int
		blocked bool
	}{
		{cols: 64, n: 1, blocked: false},
		{cols: 64, n: 3, blocked: false},
		{cols: 64, n: 4, blocked: true},
		{cols: 64, n: 8, blocked: true},
		{cols: 64, n: 9, blocked: false},
		{cols: 64, n: 16, blocked: false},
		{cols: overBudget - 1, n: 8, blocked: true},
		{cols: overBudget, n: 8, blocked: false},
		{cols: overBudget, n: 7, blocked: true},
		{cols: 2 * overBudget, n: 4, blocked: false},
	} {
		if got := blockedAuto(c.cols, c.n); got != c.blocked {
			t.Errorf("blockedAuto(cols=%d, n=%d) = %v, want %v", c.cols, c.n, got, c.blocked)
		}
		w := tensor.New(3, c.cols)
		for i := range w.Data {
			if rng.Float64() < 0.05 {
				w.Data[i] = rng.NormFloat64()
			}
		}
		checkAgainstScalar(t, EncodeCSR(w).Compile(), tensor.Randn(rng, 1, c.cols, c.n), "dispatch")
	}
}

// TestConvPlanDifferential proves the fused implicit-im2col kernel (the
// batch-last layout the engine runs) against the explicit lowering
// (Im2ColInto + scalar plan MatMulInto). Equality is |difference| = 0: bit
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
			p := EncodeCSR(w).Compile()
			g := tensor.ConvGeom{InC: gm.inC, KH: gm.kh, KW: gm.kw,
				Stride: gm.stride, Pad: gm.pad, InH: gm.inH, InW: gm.inW}
			oh, ow := g.OutH(), g.OutW()
			x := tensor.Randn(rng, 1, batch, gm.inC, gm.inH, gm.inW)
			n := batch * oh * ow

			lowered := tensor.New(cols, n)
			tensor.Im2ColInto(x, g, lowered)
			want := scalarRef(p, lowered)

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
