package format

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// quantTol bounds the int8 SpMM's per-element error against the float plan
// for one output element: each operand carries at most half a quantization
// step (rowScale/2 and colScale/2), so a row of k stored entries accrues at
// most k·(|w|·colScale/2 + |b|·rowScale/2 + rowScale·colScale/4). The
// helper evaluates that bound for a concrete plan/activation pair.
func quantTol(p *Plan, q *QuantPlan, b *tensor.Tensor, n int) []float64 {
	colMax := make([]float64, n)
	for r := 0; r < p.Cols; r++ {
		for j := 0; j < n; j++ {
			if a := math.Abs(b.Data[r*n+j]); a > colMax[j] {
				colMax[j] = a
			}
		}
	}
	tol := make([]float64, p.Rows*n)
	for r := 0; r < p.Rows; r++ {
		rs := q.RowScale[r]
		for i := p.RowPtr[r]; i < p.RowPtr[r+1]; i++ {
			w := math.Abs(p.Val[i])
			for j := 0; j < n; j++ {
				cs := colMax[j] / 127
				if colMax[j] == 0 {
					cs = 1
				}
				tol[r*n+j] += w*cs/2 + colMax[j]*rs/2 + rs*cs/4
			}
		}
	}
	return tol
}

// TestQuantPlanCloseToFloatPlan is the int8 analog of the bit-identity
// suite: the quantized kernel cannot match the float plan exactly, but it
// must stay inside the analytical quantization-error bound on every output
// element, across the same matrix/batch sweep — and, at the uint16 width
// boundary (edgeColumns), against the dense product.
func TestQuantPlanCloseToFloatPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	within := func(label string, p *Plan, q *QuantPlan, x, want *tensor.Tensor) {
		t.Helper()
		n := x.Shape[1]
		got := q.MatMul(x)
		tol := quantTol(p, q, x, n)
		for i := range want.Data {
			if e := math.Abs(got.Data[i] - want.Data[i]); e > tol[i]+1e-12 {
				t.Fatalf("%s batch %d: element %d error %v exceeds bound %v", label, n, i, e, tol[i])
			}
		}
	}
	for _, s := range planShapes {
		w := hybridMatrix(rng, s.rows, s.cols, s.b, s.nm, s.pruned)
		e, err := EncodeCRISP(w, s.b, s.nm)
		if err != nil {
			t.Fatalf("%dx%d: %v", s.rows, s.cols, err)
		}
		p := e.Compile()
		q, err := p.Quantize()
		if err != nil {
			t.Fatalf("%dx%d: %v", s.rows, s.cols, err)
		}
		if len(q.Code) > p.NNZ() {
			t.Fatalf("%dx%d: quantized plan stores %d entries, float plan only %d", s.rows, s.cols, len(q.Code), p.NNZ())
		}
		for _, n := range planBatches {
			x := tensor.Randn(rng, 1, s.cols, n)
			within(fmt.Sprintf("%dx%d", s.rows, s.cols), p, q, x, p.MatMul(x))
		}
	}

	w := edgeColumns(rng, 2)
	p := EncodeCSR(w).Compile()
	q, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		x := tensor.Randn(rng, 1, MaxCols, n)
		within("edge columns", p, q, x, tensor.MatMul(w, x))
	}
}

// TestQuantPlanReconstruction: the quantized plan stores each row's codes
// sign-grouped (positives, then negatives; zero codes dropped), so it is
// compared to the float plan element-wise through its decoded matrix: every
// stored weight must reconstruct to within half its row scale, and the
// sign-span invariants must hold.
func TestQuantPlanReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	w := hybridMatrix(rng, 32, 64, 8, sparsity.NM{N: 2, M: 4}, 2)
	p := EncodeCSR(w).Compile()
	q, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	// Decode the quantized plan to a dense matrix.
	deq := tensor.New(32, 64)
	for r := 0; r < q.Rows; r++ {
		if q.RowScale[r] <= 0 {
			t.Fatalf("row %d scale %v not strictly positive", r, q.RowScale[r])
		}
		for i := q.RowPtr[r]; i < q.RowPtr[r+1]; i++ {
			if q.Code[i] == 0 {
				t.Fatalf("row %d stores a zero code at %d (must be dropped)", r, i)
			}
			if (i < q.NegPtr[r]) != (q.Code[i] > 0) {
				t.Fatalf("row %d entry %d: code %d on the wrong side of NegPtr", r, i, q.Code[i])
			}
			deq.Data[r*64+int(q.Col[i])] = float64(q.Code[i]) * q.RowScale[r]
		}
	}
	// Every float-plan entry must be reconstructed within half a row scale
	// (entries that quantize to 0 reconstruct as 0).
	for r := 0; r < p.Rows; r++ {
		for i := p.RowPtr[r]; i < p.RowPtr[r+1]; i++ {
			got := deq.Data[r*64+int(p.Col[i])]
			if e := math.Abs(got - p.Val[i]); e > q.RowScale[r]/2+1e-12 {
				t.Fatalf("row %d col %d reconstructs with error %v > scale/2 %v", r, p.Col[i], e, q.RowScale[r]/2)
			}
		}
	}
}

// dequantize decodes q into a dense row-major [Rows, Cols] matrix: stored
// entries become Code·RowScale, dropped (zero-code) entries stay 0.
func dequantize(q *QuantPlan) []float64 {
	deq := make([]float64, q.Rows*q.Cols)
	for r, s := range q.RowScale {
		for i := q.RowPtr[r]; i < q.RowPtr[r+1]; i++ {
			deq[r*q.Cols+int(q.Col[i])] = float64(q.Code[i]) * s
		}
	}
	return deq
}

// TestPlanQuantizeRoundTripBounds: a dense Gaussian matrix quantizes with
// strictly positive row scales and every weight reconstructs within half
// its row scale.
func TestPlanQuantizeRoundTripBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.Randn(rng, 2, 8, 16)
	p := EncodeCSR(m).Compile()
	q, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	deq := dequantize(q)
	for r := 0; r < 8; r++ {
		s := q.RowScale[r]
		if !(s > 0) {
			t.Fatalf("row %d scale %v not strictly positive", r, s)
		}
		for c := 0; c < 16; c++ {
			if e := math.Abs(deq[r*16+c] - m.At(r, c)); e > s/2+1e-12 {
				t.Fatalf("row %d col %d: error %v exceeds half-scale %v", r, c, e, s/2)
			}
		}
	}
}

// TestPlanQuantizeErrorBoundProperty: the half-scale reconstruction bound
// holds for any seed and weight magnitude.
func TestPlanQuantizeErrorBoundProperty(t *testing.T) {
	f := func(seed int64, scale uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := tensor.Randn(rng, float64(scale%50)+0.1, 4, 8)
		q, err := EncodeCSR(m).Compile().Quantize()
		if err != nil {
			return false
		}
		deq := dequantize(q)
		for r := 0; r < 4; r++ {
			for c := 0; c < 8; c++ {
				if math.Abs(deq[r*8+c]-m.At(r, c)) > q.RowScale[r]/2+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantizeDeterministic: the same plan always quantizes to the same
// codes and scales — the serving layer's snapshot-restore path depends on
// re-quantization being reproducible.
func TestQuantizeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	w := hybridMatrix(rng, 32, 64, 8, sparsity.NM{N: 2, M: 4}, 2)
	p := EncodeCSR(w).Compile()
	a, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			t.Fatalf("code %d differs across quantizations", i)
		}
	}
	for r := range a.RowScale {
		if a.RowScale[r] != b.RowScale[r] {
			t.Fatalf("row %d scale differs across quantizations", r)
		}
	}
}

// TestQuantizeRejectsNonFiniteWeights: a NaN or Inf weight must fail the
// compile instead of encoding garbage codes.
func TestQuantizeRejectsNonFiniteWeights(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := tensor.New(4, 8)
		w.Data[3] = 1.5
		w.Data[9] = bad
		if _, err := EncodeCSR(w).Compile().Quantize(); err == nil {
			t.Fatalf("weight %v must fail quantization", bad)
		}
	}
}

// TestQuantCounterMatchesQuantize: a QuantCounter handed a matrix's
// non-zeros counts the codes its plan quantizes to, in a slab that has room
// for the matrix, and fails where Quantize fails.
func TestQuantCounterMatchesQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	count := func(w *tensor.Tensor, s *PlanSlab) (int, error) {
		q := s.QuantCounter(w.Shape[1])
		for i, v := range w.Data {
			if v != 0 {
				q.Add(i, v)
			}
		}
		return q.Codes()
	}
	for _, shape := range [][2]int{{1, 1}, {7, 33}, {32, 96}, {64, 288}} {
		w := hybridMatrix(rng, shape[0], shape[1], 1, sparsity.NM{N: 2, M: 4}, 0)
		for i := range w.Data {
			w.Data[i] *= math.Pow(10, float64(rng.Intn(5)-2)) // rows whose small entries round to no code
		}
		p := EncodeCSR(w).Compile()
		want, err := p.QuantCodes()
		if err != nil {
			t.Fatal(err)
		}
		s := NewPlanSlab(1, p.Rows, p.NNZ())
		if got, err := count(w, &s); err != nil || got != want {
			t.Fatalf("%v: counted %d codes (%v), the plan quantizes to %d", shape, got, err, want)
		}
	}
	w := tensor.New(4, 8)
	w.Data[3], w.Data[9] = 1.5, math.NaN()
	s := NewPlanSlab(1, 4, 2)
	if _, err := count(w, &s); err == nil {
		t.Fatal("a non-finite weight must fail the count")
	}
}

// TestQuantMatMulIntoDirtyScratch: MatMulInto must own its destination and
// every scratch buffer — garbage-filled recycled memory (the arena
// contract) yields the same result as freshly allocated scratch.
func TestQuantMatMulIntoDirtyScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	w := hybridMatrix(rng, 32, 64, 8, sparsity.NM{N: 2, M: 4}, 2)
	q, err := EncodeCSR(w).Compile().Quantize()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 64, 16)
	want := q.MatMul(x)
	dirty := QuantScratch{
		Packed:   make([]uint64, 64*8),
		ColScale: make([]float64, 16),
		ColInv:   make([]float64, 16),
		AccP:     make([]uint64, 32*8),
		AccN:     make([]uint64, 32*8),
	}
	for i := range dirty.Packed {
		dirty.Packed[i] = math.MaxUint64
	}
	for i := range dirty.ColScale {
		dirty.ColScale[i] = 1e30
		dirty.ColInv[i] = -1e30
	}
	for i := range dirty.AccP {
		dirty.AccP[i] = math.MaxUint64
		dirty.AccN[i] = math.MaxUint64 - 1
	}
	out := tensor.Full(1e30, 32, 16)
	for pass := 0; pass < 2; pass++ {
		if got := q.MatMulInto(x, out, dirty); !tensor.Equal(got, want, 0) {
			t.Fatalf("pass %d: dirty-scratch MatMulInto differs from MatMul", pass)
		}
	}
}

// TestQuantMatMulZeroAndNonFiniteActivations: an all-zero activation column
// must produce exact zeros, and NaN/Inf activations must degrade only their
// own sample instead of poisoning the integer accumulators.
func TestQuantMatMulZeroAndNonFiniteActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	w := hybridMatrix(rng, 16, 32, 8, sparsity.NM{N: 2, M: 4}, 1)
	p := EncodeCSR(w).Compile()
	q, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 32, 4)
	for r := 0; r < 32; r++ {
		x.Data[r*4+1] = 0           // column 1: all zero
		x.Data[r*4+2] = math.NaN()  // column 2: poisoned
		x.Data[r*4+3] = math.Inf(1) // column 3: poisoned
	}
	got := q.MatMulInto(x, tensor.New(16, 4), QuantScratch{})
	ref := p.MatMul(x)
	tol := quantTol(p, q, x, 4)
	for r := 0; r < 16; r++ {
		if got.Data[r*4+1] != 0 {
			t.Fatalf("row %d: zero column produced %v", r, got.Data[r*4+1])
		}
		// Column 0 is healthy and must still be within the bound.
		if e := math.Abs(got.Data[r*4] - ref.Data[r*4]); e > tol[r*4]+1e-12 {
			t.Fatalf("row %d: healthy column error %v exceeds bound %v", r, e, tol[r*4])
		}
		// Poisoned columns must be finite (codes fail closed to 0/clamp).
		for _, j := range []int{2, 3} {
			if v := got.Data[r*4+j]; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("row %d col %d: non-finite output %v from non-finite input", r, j, v)
			}
		}
	}
}

// TestQuantMatMulParallelMatchesSerial forces the row-parallel path (work
// above tensor.ParallelThreshold) and checks it against a serial row walk:
// per-row accumulator segments mean fan-out cannot change results.
func TestQuantMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	w := hybridMatrix(rng, 128, 256, 8, sparsity.NM{N: 2, M: 4}, 2)
	q, err := EncodeCSR(w).Compile().Quantize()
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	x := tensor.Randn(rng, 1, 256, n)
	if len(q.Code)*n < tensor.ParallelThreshold {
		t.Fatalf("shape too small to exercise the parallel path (%d work)", len(q.Code)*n)
	}
	got := q.MatMul(x)

	// Serial reference: same kernel, forced single row range.
	s := QuantScratch{}.grown(q.Rows, q.Cols, n)
	halfW := (n + 1) / 2
	quantizePacked(x.Data, q.Cols, n, halfW, s.Packed, s.ColScale, s.ColInv)
	want := tensor.New(q.Rows, n)
	q.rowRange(s.Packed, s.ColScale, s.AccP, s.AccN, want, n, halfW, 0, q.Rows)
	if !tensor.Equal(got, want, 0) {
		t.Fatal("parallel quantized SpMM differs from serial row walk")
	}
}
