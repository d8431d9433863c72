package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// gemmRowsRef is the scalar three-loop kernel Gemm ran before it was
// register-blocked, kept verbatim as the oracle: it defines the
// accumulation order every output element of the production kernels must
// reproduce bit for bit.
func gemmRowsRef(transA, transB bool, m, n, k int, alpha float64, a, b, c []float64, i0, i1 int) {
	switch {
	case !transA && !transB:
		for i := i0; i < i1; i++ {
			ci := c[i*n : (i+1)*n]
			ai := a[i*k : (i+1)*k]
			for l := 0; l < k; l++ {
				av := alpha * ai[l]
				if av == 0 {
					continue
				}
				bl := b[l*n : (l+1)*n]
				for j, bv := range bl {
					ci[j] += av * bv
				}
			}
		}
	case transA && !transB:
		for i := i0; i < i1; i++ {
			ci := c[i*n : (i+1)*n]
			for l := 0; l < k; l++ {
				av := alpha * a[l*m+i]
				if av == 0 {
					continue
				}
				bl := b[l*n : (l+1)*n]
				for j, bv := range bl {
					ci[j] += av * bv
				}
			}
		}
	case !transA && transB:
		for i := i0; i < i1; i++ {
			ai := a[i*k : (i+1)*k]
			ci := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := b[j*k : (j+1)*k]
				s := 0.0
				for l, av := range ai {
					s += av * bj[l]
				}
				ci[j] += alpha * s
			}
		}
	default:
		panic("gemmRowsRef: transA && transB")
	}
}

// gemmRef is Gemm over the reference kernel, serial.
func gemmRef(transA, transB bool, m, n, k int, alpha float64, a, b []float64, beta float64, c []float64) {
	for i := range c {
		switch beta {
		case 0:
			c[i] = 0
		case 1:
		default:
			c[i] *= beta
		}
	}
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	gemmRowsRef(transA, transB, m, n, k, alpha, a, b, c, 0, m)
}

// maskedOperand fills a stored rows×cols matrix the way a pruned weight
// matrix looks. sparsity 0 is dense; 1 keeps two of every four consecutive
// elements of a stored row (2:4, ~50 % zeros); 2 adds block pruning on top —
// whole 4-wide column blocks zeroed in every row — for ~90 % zeros. Read
// through transA the same patterns become column- resp. row-structured.
// A few −0.0 entries check that the zero skip treats both zeros alike.
func maskedOperand(rng *rand.Rand, rows, cols, sparsity int) []float64 {
	a := make([]float64, rows*cols)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	if sparsity == 0 {
		return a
	}
	dropBlock := make([]bool, (cols+3)/4)
	if sparsity == 2 {
		for g := range dropBlock {
			dropBlock[g] = rng.Float64() < 0.8
		}
	}
	for r := 0; r < rows; r++ {
		for g := 0; g*4 < cols; g++ {
			lo, hi := g*4, min(g*4+4, cols)
			if dropBlock[g] {
				clear(a[r*cols+lo : r*cols+hi])
				continue
			}
			first := rng.Intn(4)
			second := (first + 1 + rng.Intn(3)) % 4
			for _, z := range []int{first, second} {
				if lo+z < hi {
					a[r*cols+lo+z] = 0
				}
			}
		}
	}
	for i := 0; i < len(a); i += 7 {
		if a[i] == 0 {
			a[i] = math.Copysign(0, -1)
		}
	}
	return a
}

// checkGemmBits runs one Gemm call against the reference and reports the
// first element whose bits differ.
func checkGemmBits(t *testing.T, rng *rand.Rand, transA, transB bool, m, n, k, sparsity int, alpha, beta float64) {
	t.Helper()
	var a []float64
	if transA {
		a = maskedOperand(rng, k, m, sparsity)
	} else {
		a = maskedOperand(rng, m, k, sparsity)
	}
	// B is an activation matrix: dense, but with the exact zeros im2col
	// padding and ReLU put there, so products of either zero sign occur.
	b := make([]float64, k*n)
	for i := range b {
		if b[i] = rng.NormFloat64(); rng.Intn(8) == 0 {
			b[i] = 0
		}
	}
	got := make([]float64, m*n)
	for i := range got {
		got[i] = rng.NormFloat64()
	}
	want := append([]float64(nil), got...)
	Gemm(transA, transB, m, n, k, alpha, a, b, beta, got)
	gemmRef(transA, transB, m, n, k, alpha, a, b, beta, want)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Gemm(transA=%v transB=%v m=%d n=%d k=%d sparsity=%d alpha=%v beta=%v)[%d] = %x, reference %x",
				transA, transB, m, n, k, sparsity, alpha, beta, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// transposeCases are the three operand layouts Gemm supports.
var transposeCases = [][2]bool{{false, false}, {true, false}, {false, true}}

func TestGemmBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type shape struct{ m, n, k int }
	var shapes []shape
	// Every n%4 and k%4 tail against odd, even and single rows.
	for _, m := range []int{1, 2, 3, 6} {
		for n := 1; n <= 9; n++ {
			for k := 1; k <= 9; k++ {
				shapes = append(shapes, shape{m, n, k})
			}
		}
	}
	for i := 0; i < 60; i++ {
		shapes = append(shapes, shape{1 + rng.Intn(24), 1 + rng.Intn(40), 1 + rng.Intn(70)})
	}
	// Above ParallelThreshold: the row range is split across the worker
	// pool, with chunk boundaries that cut the 2-row blocks.
	shapes = append(shapes, shape{16, 144, 64}, shape{33, 37, 67}, shape{5, 130, 129}, shape{64, 64, 64})
	for _, s := range shapes {
		for _, tr := range transposeCases {
			for sparsity := 0; sparsity <= 2; sparsity++ {
				for _, alpha := range []float64{1, 0.37} {
					for _, beta := range []float64{0, 1, 0.5} {
						checkGemmBits(t, rng, tr[0], tr[1], s.m, s.n, s.k, sparsity, alpha, beta)
					}
				}
			}
		}
	}
}

func TestGemmBothTransposedPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "transA && transB") {
			t.Fatalf("Gemm(true, true, ...) recovered %v, want a panic naming the unsupported combination", r)
		}
	}()
	Gemm(true, true, 2, 2, 2, 1, make([]float64, 4), make([]float64, 4), 0, make([]float64, 4))
}

// FuzzGemm differentially fuzzes the register-blocked kernels against the
// scalar reference on fuzzer-chosen shapes, layouts, sparsity and scaling.
// The seed corpus runs in tier-1; CI's nightly job fuzzes for a minute.
func FuzzGemm(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(16), uint16(144), uint16(33), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint16(144), uint16(64), uint16(16), uint8(2), uint8(1))
	f.Add(int64(3), uint8(2), uint16(7), uint16(10), uint16(259), uint8(1), uint8(2))
	f.Add(int64(4), uint8(2), uint16(1), uint16(3), uint16(1), uint8(0), uint8(5))
	f.Add(int64(5), uint8(0), uint16(65), uint16(65), uint16(65), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, layout uint8, mSel, nSel, kSel uint16, sparsity, scale uint8) {
		rng := rand.New(rand.NewSource(seed))
		tr := transposeCases[int(layout)%len(transposeCases)]
		m, n, k := int(mSel)%96+1, int(nSel)%160+1, int(kSel)%300+1
		alpha := []float64{1, 0.37, -2, 0}[int(scale)%4]
		beta := []float64{0, 1, 0.5}[int(scale/4)%3]
		checkGemmBits(t, rng, tr[0], tr[1], m, n, k, int(sparsity)%3, alpha, beta)
	})
}
