package tensor

import "fmt"

// MatMul computes C = A·B for A (m×k) and B (k×n), returning a new m×n
// tensor. Both inputs must be rank-2.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 tensors, got %v and %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch: %v vs %v", a.Shape, b.Shape))
	}
	c := New(m, n)
	// New already zeroed c, so accumulate (beta=1) instead of having Gemm
	// clear it a second time; adding into +0 gives the same bits.
	Gemm(false, false, m, n, k, 1, a.Data, b.Data, 1, c.Data)
	return c
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C over raw row-major buffers.
// op(A) is m×k and op(B) is k×n; transA/transB select whether the stored
// buffer is the transpose of the operand; at most one of them may be set.
// C must have length m*n.
//
// The row loop fans out over the persistent kernel worker pool (gemmJobs'
// Run) when the problem is large enough to amortize the handoff; no
// goroutines are spawned per call, and the call allocates nothing.
func Gemm(transA, transB bool, m, n, k int, alpha float64, a, b []float64, beta float64, c []float64) {
	if len(c) != m*n {
		panic(fmt.Sprintf("tensor: Gemm output length %d != %d*%d", len(c), m, n))
	}
	wantA := m * k
	wantB := k * n
	if len(a) != wantA || len(b) != wantB {
		panic(fmt.Sprintf("tensor: Gemm operand sizes %d,%d do not match m=%d n=%d k=%d", len(a), len(b), m, n, k))
	}
	if transA && transB {
		panic("tensor: Gemm with both operands transposed (transA && transB) is not supported: no caller needs it")
	}
	if beta == 0 {
		clear(c)
	} else if beta != 1 {
		for i := range c {
			c[i] *= beta
		}
	}
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	gemmJobs.Run(m, m*n*k, gemmJob{transA: transA, transB: transB, m: m, n: n, k: k, alpha: alpha, a: a, b: b, c: c})
}

// gemmJob is Gemm's fan-out record: its arguments, for gemmRows.
type gemmJob struct {
	Join
	transA, transB bool
	m, n, k        int
	alpha          float64
	a, b, c        []float64
}

var gemmJobs JobPool[gemmJob, *gemmJob]

// Rows implements RowJob.
func (j *gemmJob) Rows(i0, i1 int) {
	gemmRows(j.transA, j.transB, j.m, j.n, j.k, j.alpha, j.a, j.b, j.c, i0, i1)
}

// gemmRows computes output rows [i0, i1) of C = alpha*op(A)*op(B) + C.
//
// Accumulation-order contract: every output element is built exactly as the
// scalar three-loop kernel built it (kept as the oracle in gemm_ref_test.go),
// so results are bit-identical to it on every shape. For A·B and Aᵀ·B that
// is c += (alpha*a)*b over l ascending, skipping every l whose alpha*a is
// zero (the pruned 90 % of a masked weight matrix); for A·Bᵀ it is
// c += alpha*s with s the plain l-ascending dot product. The kernels below
// only change how many of those chains are in flight at once and how often
// c travels through memory — never the order of additions within one
// element, the precision, or (no math.FMA) the rounding of a product.
func gemmRows(transA, transB bool, m, n, k int, alpha float64, a, b, c []float64, i0, i1 int) {
	switch {
	case transB:
		gemmDotRows(n, k, alpha, a, b, c, i0, i1)
	case transA:
		// A stored k×m: A[l][i] walks a column of the stored matrix.
		for i := i0; i < i1; i++ {
			rowUpdate(c[i*n:(i+1)*n], a[i:], m, k, alpha, b)
		}
	default:
		// A[i][l] * B[l][j]: stream B rows, four per pass over the C row.
		for i := i0; i < i1; i++ {
			rowUpdate(c[i*n:(i+1)*n], a[i*k:(i+1)*k], 1, k, alpha, b)
		}
	}
}

// rowUpdate adds Σ_l (alpha*coef[l*stride])·B[l] to the C row ci, l
// ascending over the k rows of B, skipping zero coefficients. Surviving
// coefficients are applied four at a time: ci[j] is loaded once, takes its
// four additions in l order in a register, and is stored once, where the
// scalar loop made four round trips through memory. A row of a masked
// weight matrix keeps that rate, because zeros are dropped before the
// groups of four are formed.
func rowUpdate(ci, coef []float64, stride, k int, alpha float64, b []float64) {
	n := len(ci)
	var av [4]float64
	var at [4]int // the B rows the pending coefficients multiply
	pending := 0
	for l := 0; l < k; l++ {
		v := alpha * coef[l*stride]
		if v == 0 {
			continue
		}
		av[pending], at[pending] = v, l
		if pending++; pending < 4 {
			continue
		}
		pending = 0
		b0, b1, b2, b3 := b[at[0]*n:][:n], b[at[1]*n:][:n], b[at[2]*n:][:n], b[at[3]*n:][:n]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		for j := range ci {
			t := ci[j]
			t += a0 * b0[j]
			t += a1 * b1[j]
			t += a2 * b2[j]
			t += a3 * b3[j]
			ci[j] = t
		}
	}
	for q := 0; q < pending; q++ {
		v, bq := av[q], b[at[q]*n:][:n]
		for j := range ci {
			ci[j] += v * bq[j]
		}
	}
}

// gemmDotRows is the A·Bᵀ case (B stored n×k): every output is one dot
// product, a chain of k dependent additions. A 2×4 block of outputs runs
// eight independent chains per pass, so the adder pipeline stays full and
// each loaded a/b element feeds four/two products. Every chain is still
// its own l-ascending sum.
func gemmDotRows(n, k int, alpha float64, a, b, c []float64, i0, i1 int) {
	i := i0
	for ; i+2 <= i1; i += 2 {
		x0 := a[i*k:][:k]
		x1 := a[(i+1)*k:][:len(x0)]
		c0, c1 := c[i*n:(i+1)*n], c[(i+1)*n:(i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1, b2, b3 := b[j*k:][:len(x0)], b[(j+1)*k:][:len(x0)], b[(j+2)*k:][:len(x0)], b[(j+3)*k:][:len(x0)]
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for l, u := range x0 {
				v := x1[l]
				w := b0[l]
				s00 += u * w
				s10 += v * w
				w = b1[l]
				s01 += u * w
				s11 += v * w
				w = b2[l]
				s02 += u * w
				s12 += v * w
				w = b3[l]
				s03 += u * w
				s13 += v * w
			}
			c0[j] += alpha * s00
			c0[j+1] += alpha * s01
			c0[j+2] += alpha * s02
			c0[j+3] += alpha * s03
			c1[j] += alpha * s10
			c1[j+1] += alpha * s11
			c1[j+2] += alpha * s12
			c1[j+3] += alpha * s13
		}
		for ; j < n; j++ {
			bj := b[j*k:][:len(x0)]
			var s0, s1 float64
			for l, u := range x0 {
				s0 += u * bj[l]
				s1 += x1[l] * bj[l]
			}
			c0[j] += alpha * s0
			c1[j] += alpha * s1
		}
	}
	if i < i1 { // odd row out: 1×4 blocks
		x := a[i*k:][:k]
		ci := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1, b2, b3 := b[j*k:][:len(x)], b[(j+1)*k:][:len(x)], b[(j+2)*k:][:len(x)], b[(j+3)*k:][:len(x)]
			var s0, s1, s2, s3 float64
			for l, u := range x {
				s0 += u * b0[l]
				s1 += u * b1[l]
				s2 += u * b2[l]
				s3 += u * b3[l]
			}
			ci[j] += alpha * s0
			ci[j+1] += alpha * s1
			ci[j+2] += alpha * s2
			ci[j+3] += alpha * s3
		}
		for ; j < n; j++ {
			bj := b[j*k:][:len(x)]
			s := 0.0
			for l, u := range x {
				s += u * bj[l]
			}
			ci[j] += alpha * s
		}
	}
}
