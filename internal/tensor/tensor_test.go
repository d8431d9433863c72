package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if len(x.Shape) != 3 || x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != 4 {
		t.Fatalf("bad dims: %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if got := x.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset check: (2*4+1)*5+3 = 48.
	if x.Data[48] != 7.5 {
		t.Fatalf("row-major layout broken: Data[48]=%v", x.Data[48])
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestConcat(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8, 9, 10, 11, 12}, 2, 2, 2)
	c := ConcatInto([]*Tensor{a, b}, New(3, 2, 2))
	for i := 0; i < 12; i++ {
		if c.Data[i] != float64(i+1) {
			t.Fatalf("Data[%d]=%v", i, c.Data[i])
		}
	}
}

func TestConcatPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for trailing-shape mismatch")
		}
	}()
	ConcatInto([]*Tensor{New(1, 2, 2), New(1, 2, 3)}, New(2, 2, 2))
}

func TestReshapeView(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[5] = 9
	if x.Data[5] != 9 {
		t.Fatal("Reshape must share storage")
	}
	z := x.Reshape(4, -1)
	if z.Shape[1] != 3 {
		t.Fatalf("inferred dim = %d, want 3", z.Shape[1])
	}
}

func TestReshapePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)
	sum := Add(a, b)
	want := []float64{11, 22, 33, 44}
	for i := range want {
		if sum.Data[i] != want[i] {
			t.Fatalf("Add[%d] = %v, want %v", i, sum.Data[i], want[i])
		}
	}
	prod := Mul(a, b)
	wantP := []float64{10, 40, 90, 160}
	for i := range wantP {
		if prod.Data[i] != wantP[i] {
			t.Fatalf("Mul[%d] = %v, want %v", i, prod.Data[i], wantP[i])
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-3, 1, 2}, 3)
	if x.CountNonZero() != 3 {
		t.Fatalf("CountNonZero = %v", x.CountNonZero())
	}
}

// naiveGemm is the O(mnk) reference implementation used to validate Gemm.
func naiveGemm(transA, transB bool, m, n, k int, alpha float64, a, b []float64, beta float64, c []float64) {
	get := func(buf []float64, trans bool, rows, cols, i, j int) float64 {
		if trans {
			return buf[j*rows+i]
		}
		return buf[i*cols+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += get(a, transA, m, k, i, l) * get(b, transB, k, n, l, j)
			}
			c[i*n+j] = beta*c[i*n+j] + alpha*s
		}
	}
}

func TestGemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 3, 7} {
		for _, n := range []int{1, 4, 9} {
			for _, k := range []int{1, 5, 8} {
				for _, tr := range transposeCases {
					ta, tb := tr[0], tr[1]
					a := make([]float64, m*k)
					b := make([]float64, k*n)
					for i := range a {
						a[i] = rng.NormFloat64()
					}
					for i := range b {
						b[i] = rng.NormFloat64()
					}
					got := make([]float64, m*n)
					want := make([]float64, m*n)
					for i := range got {
						got[i] = rng.NormFloat64()
						want[i] = got[i]
					}
					Gemm(ta, tb, m, n, k, 1.25, a, b, 0.5, got)
					naiveGemm(ta, tb, m, n, k, 1.25, a, b, 0.5, want)
					for i := range got {
						if math.Abs(got[i]-want[i]) > 1e-9 {
							t.Fatalf("Gemm(%v,%v,m=%d,n=%d,k=%d)[%d] = %v, want %v",
								ta, tb, m, n, k, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	// Large enough to trigger the parallel path.
	m, n, k := 64, 64, 64
	rng := rand.New(rand.NewSource(2))
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := make([]float64, m*n)
	want := make([]float64, m*n)
	Gemm(false, false, m, n, k, 1, a, b, 0, got)
	naiveGemm(false, false, m, n, k, 1, a, b, 0, want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("parallel Gemm[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	n := 5
	id := New(n, n)
	for i := 0; i < n; i++ {
		id.Set(1, i, i)
	}
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, n, n)
	c := MatMul(a, id)
	if !Equal(a, c, 1e-12) {
		t.Fatal("A·I != A")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched inner dims")
		}
	}()
	MatMul(New(2, 3), New(4, 5))
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1×1×3×3 input, 2×2 kernel, stride 1, no padding → 4 output positions.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 0}
	cols := Im2Col(x, g)
	if cols.Shape[0] != 4 || cols.Shape[1] != 4 {
		t.Fatalf("cols shape = %v", cols.Shape)
	}
	// Row 0 is kernel tap (0,0): the top-left value of each patch.
	wantRow0 := []float64{1, 2, 4, 5}
	for j, w := range wantRow0 {
		if cols.At(0, j) != w {
			t.Fatalf("cols[0][%d] = %v, want %v", j, cols.At(0, j), w)
		}
	}
	// Row 3 is kernel tap (1,1): bottom-right of each patch.
	wantRow3 := []float64{5, 6, 8, 9}
	for j, w := range wantRow3 {
		if cols.At(3, j) != w {
			t.Fatalf("cols[3][%d] = %v, want %v", j, cols.At(3, j), w)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if g.OutH() != 2 || g.OutW() != 2 {
		t.Fatalf("out dims %dx%d", g.OutH(), g.OutW())
	}
	cols := Im2Col(x, g)
	// Kernel tap (0,0) for output (0,0) reads input (-1,-1) → 0.
	if cols.At(0, 0) != 0 {
		t.Fatalf("padding tap = %v, want 0", cols.At(0, 0))
	}
	// Kernel center (1,1) for output (0,0) reads input (0,0) = 1.
	if cols.At(4, 0) != 1 {
		t.Fatalf("center tap = %v, want 1", cols.At(4, 0))
	}
}

// TestCol2ImAdjoint verifies the defining adjoint property
// <Im2Col(x), y> == <x, Col2Im(y)> for random x, y, which is exactly the
// identity backprop relies on. The destination starts dirty: Col2ImInto
// clears it before it accumulates.
func TestCol2ImAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := ConvGeom{InC: 2, InH: 5, InW: 4, KH: 3, KW: 2, Stride: 2, Pad: 1}
	n := 3
	x := Randn(rng, 1, n, g.InC, g.InH, g.InW)
	cols := Im2Col(x, g)
	y := Randn(rng, 1, cols.Shape[0], cols.Shape[1])
	lhs := 0.0
	for i := range cols.Data {
		lhs += cols.Data[i] * y.Data[i]
	}
	back := Col2ImInto(y, n, g, Full(7, n, g.InC, g.InH, g.InW))
	rhs := 0.0
	for i := range x.Data {
		rhs += x.Data[i] * back.Data[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

// Property: Reshape never changes the data contents.
func TestReshapePreservesDataProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		x := FromSlice(append([]float64(nil), vals...), len(vals))
		y := x.Reshape(1, -1).Reshape(-1)
		for i := range vals {
			if y.Data[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and Mul distributes sign.
func TestAddCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 1, 4, 4)
		b := Randn(rng, 1, 4, 4)
		return Equal(Add(a, b), Add(b, a), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: GEMM is linear in alpha.
func TestGemmAlphaLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := 3, 4, 5
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		Gemm(false, false, m, n, k, 2.0, a.Data, b.Data, 0, c1)
		Gemm(false, false, m, n, k, 1.0, a.Data, b.Data, 0, c2)
		for i := range c1 {
			if math.Abs(c1[i]-2*c2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
