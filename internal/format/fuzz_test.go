package format

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// FuzzPlanMatMul differentially fuzzes the plan kernel against the
// storage-format kernels (checkAgainstStorage: MatMul and MatMulInto
// against the CSR row walk and, when the matrix conforms, the CRISP slot
// walk): fuzzer-chosen geometry, sparsity and batch width build a plan
// corpus, and every plan must reproduce its storage kernel bit for bit.
// Seed corpus: testdata/fuzz/FuzzPlanMatMul (9f6503bd0e51d467 holds a
// negative selector).
func FuzzPlanMatMul(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), int64(16), int64(0))
	f.Add(int64(7), int64(0), int64(0), int64(1), int64(1))
	f.Add(int64(42), int64(3), int64(1), int64(17), int64(2))
	// One per width that crosses a segment edge (SegCols = 256).
	f.Add(int64(5), int64(2), int64(4), int64(15), int64(1))
	f.Add(int64(6), int64(3), int64(5), int64(3), int64(0))
	f.Add(int64(8), int64(4), int64(6), int64(0), int64(3))
	f.Add(int64(9), int64(1), int64(7), int64(16), int64(2))
	f.Fuzz(func(t *testing.T, seed, rowSel, colSel, nSel, mode int64) {
		rng := rand.New(rand.NewSource(seed))
		rowsGrid := []int{1, 3, 8, 64, 65}
		colsGrid := []int{8, 16, 33, 128, 255, 256, 257, 600}
		// pick reduces a selector in uint64, so a negative one stays in range.
		pick := func(sel int64, n int) int { return int(uint64(sel) % uint64(n)) }
		rows := rowsGrid[pick(rowSel, len(rowsGrid))]
		cols := colsGrid[pick(colSel, len(colsGrid))]
		n := pick(nSel, 19) + 1

		var w *tensor.Tensor
		if mode%2 == 0 && rows%4 == 0 && cols%4 == 0 {
			w = hybridMatrix(rng, rows, cols, 4, sparsity.NM{N: 2, M: 4}, pick(mode>>1, cols/4))
		} else {
			w = tensor.Randn(rng, 2, rows, cols)
			for i := range w.Data {
				if rng.Float64() < 0.6 {
					w.Data[i] = 0
				}
			}
		}
		x := tensor.Randn(rng, 1, cols, n)
		for _, sp := range storagePlans(w, 4, sparsity.NM{N: 2, M: 4}) {
			checkAgainstStorage(t, sp, x, "fuzz")
		}
	})
}

// FuzzEncodeCRISPDecode drives the CRISP encoder with fuzzer-chosen
// geometry, sparsity pattern and values. The raw inputs parameterize a
// generator that always produces a matrix satisfying the hybrid invariants
// (N:M inside rows, row-balanced kept blocks), so every run must:
//
//   - encode without error,
//   - Decode back to exactly the source matrix (round trip),
//   - compile to a Plan holding exactly the matrix's non-zeros,
//   - and SpMM bit-identically through both the slot-walking kernel and
//     the compiled plan.
func FuzzEncodeCRISPDecode(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(1), uint8(0), uint8(1), uint8(0))
	f.Add(int64(7), uint8(1), uint8(1), uint8(0), uint8(2), uint8(3), uint8(3))
	f.Add(int64(42), uint8(4), uint8(2), uint8(2), uint8(1), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, gr, gc, bSel, nmSel, pruned, zeros uint8) {
		blocks := []int{4, 8, 16}
		b := blocks[int(bSel)%len(blocks)]
		nms := []sparsity.NM{{N: 1, M: 4}, {N: 2, M: 4}, {N: 3, M: 4}, {N: 2, M: 8}}
		nm := nms[int(nmSel)%len(nms)]
		if b%nm.M != 0 {
			nm = sparsity.NM{N: 2, M: 4}
		}
		gridRows := int(gr)%4 + 1
		gridCols := int(gc)%4 + 1
		rows, cols := gridRows*b, gridCols*b

		rng := rand.New(rand.NewSource(seed))
		w := hybridMatrix(rng, rows, cols, b, nm, int(pruned)%gridCols)
		// Sprinkle extra zeros over kept entries (padding slots in the
		// encoding), but never empty a whole block: drop at most one
		// survivor per matrix row, and only when the row keeps several.
		if zeros%2 == 1 {
			for r := 0; r < rows; r++ {
				nz := 0
				for c := 0; c < cols; c++ {
					if w.Data[r*cols+c] != 0 {
						nz++
					}
				}
				if nz < 2 {
					continue
				}
				victim := rng.Intn(nz)
				for c, seen := 0, 0; c < cols; c++ {
					if w.Data[r*cols+c] != 0 {
						if seen == victim {
							w.Data[r*cols+c] = 0
							break
						}
						seen++
					}
				}
			}
		}
		// Re-check balance: removing values may have emptied a block and
		// broken row balance, in which case EncodeCRISP must reject — that
		// is correct behaviour, not a failure.
		e, err := EncodeCRISP(w, b, nm)
		if err != nil {
			g := sparsity.NewBlockGrid(rows, cols, b)
			counts := sparsity.KeptBlocksPerRow(w, g)
			for _, c := range counts[1:] {
				if c != counts[0] {
					t.Skip("generator produced imbalanced rows; rejection is correct")
				}
			}
			t.Fatalf("balanced hybrid matrix rejected: %v", err)
		}
		if !tensor.Equal(e.Decode(), w, 0) {
			t.Fatal("Decode does not round-trip the encoded matrix")
		}
		p := e.Compile()
		if got, want := p.NNZ(), w.CountNonZero(); got != want {
			t.Fatalf("plan stores %d entries, matrix has %d non-zeros", got, want)
		}
		x := tensor.Randn(rng, 1, cols, 5)
		want := e.MatMul(x)
		if !tensor.Equal(p.MatMul(x), want, 0) {
			t.Fatal("compiled plan differs from slot-walking kernel")
		}
		dense := tensor.MatMul(w, x)
		if !tensor.Equal(want, dense, 1e-9) {
			t.Fatal("sparse SpMM differs from dense GEMM")
		}
	})
}

// FuzzPlanQuantize drives Plan.Quantize — the int8 quantizer the server
// runs — across arbitrary weight matrices, magnitudes and sparsity, and
// asserts the contract the int8 engines depend on:
//
//   - finite weights quantize with strictly positive, finite row scales;
//   - every stored code is non-zero and inside the symmetric window
//     [-127, 127];
//   - every float-plan entry reconstructs within half its row scale (+
//     rounding headroom); an entry whose code rounds to 0 is dropped and
//     reconstructs as 0;
//   - quantization is deterministic (equal Hash), the invariant the
//     serving layer's snapshot-restore re-quantization checks;
//   - one NaN/Inf weight fails the whole plan closed.
func FuzzPlanQuantize(f *testing.F) {
	f.Add(int64(1), 1.0, false, uint8(0), uint16(0))
	f.Add(int64(2), 1e-6, true, uint8(1), uint16(3))
	f.Add(int64(3), 1e6, false, uint8(2), uint16(17))
	f.Add(int64(4), 0.0, true, uint8(3), uint16(65535))
	// The four above leave one clean 2×1 matrix; these add a clean sparse
	// 6×8 one and an all-zero 2×11 one (seed>>8 picks the width), then one
	// of each width that crosses a segment edge: 255, 256, 257 and 600.
	f.Add(int64(0x705), 1.0, true, uint8(0), uint16(0))
	f.Add(int64(0xa03), 0.0, false, uint8(0), uint16(0))
	f.Add(int64(0xf05), 1.0, false, uint8(0), uint16(0))
	f.Add(int64(0x1006), 3.0, true, uint8(0), uint16(0))
	f.Add(int64(0x1104), 1e-3, false, uint8(0), uint16(0))
	f.Add(int64(0x1202), 1.0, true, uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, scale float64, sparse bool, poison uint8, poisonAt uint16) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 1e12 {
			t.Skip("scale itself out of the finite test envelope")
		}
		if scale != 0 && math.Abs(scale) < 1e-280 {
			t.Skip("near-subnormal row scales cannot hold a half-scale error bound")
		}
		widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 255, 256, 257, 600}
		rows, cols := 1+int(uint64(seed)%7), widths[uint64(seed>>8)%uint64(len(widths))]
		rng := rand.New(rand.NewSource(seed))
		m := tensor.New(rows, cols)
		// Magnitudes spread over 12 binades, so rows mix weights that
		// quantize to 0 (and must be dropped) with ones near the row max.
		for i := range m.Data {
			if !sparse || rng.Intn(2) == 0 {
				m.Data[i] = math.Ldexp(scale*(rng.Float64()-0.5), -rng.Intn(12))
			}
		}

		// poison != 0 injects one non-finite weight: Quantize must reject
		// the whole plan, never emit codes for it.
		if poison%4 != 0 {
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[poison%4-1]
			m.Data[int(poisonAt)%len(m.Data)] = bad
			if q, err := EncodeCSR(m).Compile().Quantize(); err == nil {
				t.Fatalf("non-finite weight %v produced codes %v instead of failing closed", bad, q.Code)
			}
			return
		}

		p := EncodeCSR(m).Compile()
		q, err := p.Quantize()
		if err != nil {
			t.Fatalf("finite weights rejected: %v", err)
		}
		for r, s := range q.RowScale {
			if !(s > 0) || math.IsInf(s, 0) {
				t.Fatalf("row %d scale %v not strictly positive and finite", r, s)
			}
		}
		for _, c := range q.Code {
			if c == 0 || c < -127 {
				t.Fatalf("code %d outside the non-zero symmetric int8 window", c)
			}
		}
		deq := dequantize(q)
		p.Entries(func(at int, v float64) {
			if s := q.RowScale[at/cols]; math.Abs(deq[at]-v) > s/2+1e-9*s {
				t.Fatalf("row %d col %d: reconstruction error %v exceeds half-scale %v", at/cols, at%cols, math.Abs(deq[at]-v), s/2)
			}
		})

		q2, err := p.Quantize()
		if err != nil {
			t.Fatalf("second quantization rejected: %v", err)
		}
		if q2.Hash(HashInit) != q.Hash(HashInit) {
			t.Fatal("two quantizations of the same plan differ")
		}
	})
}
