package format

import (
	"math/rand"
	"testing"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// FuzzBlockedMatMul differentially fuzzes the float kernel paths against
// the scalar reference (checkAgainstScalar: the public dispatch and
// matmulBlocked at every conformance chunk size): fuzzer-chosen geometry,
// sparsity and batch width build a plan corpus — arbitrary CSR structure
// and, when the matrix conforms, the CRISP compile with its uniform-span
// fast path — and every path must reproduce the scalar result bit for
// bit. Seed corpus: testdata/fuzz/FuzzBlockedMatMul.
func FuzzBlockedMatMul(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), int64(16), int64(0))
	f.Add(int64(7), int64(0), int64(0), int64(1), int64(1))
	f.Add(int64(42), int64(3), int64(1), int64(17), int64(2))
	f.Fuzz(func(t *testing.T, seed, rowSel, colSel, nSel, mode int64) {
		rng := rand.New(rand.NewSource(seed))
		rowsGrid := []int{1, 3, 8, 64, 65}
		colsGrid := []int{8, 16, 33, 128}
		rows := rowsGrid[int(uint64(rowSel))%len(rowsGrid)]
		cols := colsGrid[int(uint64(colSel))%len(colsGrid)]
		n := int(uint64(nSel))%19 + 1

		var w *tensor.Tensor
		if mode%2 == 0 && rows%4 == 0 && cols%4 == 0 {
			w = hybridMatrix(rng, rows, cols, 4, sparsity.NM{N: 2, M: 4}, int(uint64(mode>>1))%(cols/4))
		} else {
			w = tensor.Randn(rng, 2, rows, cols)
			for i := range w.Data {
				if rng.Float64() < 0.6 {
					w.Data[i] = 0
				}
			}
		}
		plans := []*Plan{EncodeCSR(w).Compile()}
		if e, err := EncodeCRISP(w, 4, sparsity.NM{N: 2, M: 4}); err == nil {
			plans = append(plans, e.Compile())
		}
		x := tensor.Randn(rng, 1, cols, n)
		for _, p := range plans {
			checkAgainstScalar(t, p, x, "fuzz")
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
