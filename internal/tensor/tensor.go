// Package tensor provides dense float64 tensors with the small set of
// operations the CRISP reproduction needs: elementwise arithmetic, reductions,
// a parallel GEMM, and the im2col/col2im transforms used to lower
// convolutions onto GEMM. Tensors are row-major and contiguous; reshapes are
// zero-copy views.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Tensor is a dense, row-major, contiguous float64 tensor.
type Tensor struct {
	// Shape holds the extent of every dimension, outermost first.
	Shape []int
	// Data holds the elements in row-major order; len(Data) == product(Shape).
	Data []float64
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	s := append([]int(nil), shape...)
	return &Tensor{Shape: s, Data: make([]float64, prod(s))}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	if len(data) != prod(shape) {
		panic(fmt.Sprintf("tensor: FromSlice length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Randn fills a new tensor with N(0, std²) samples drawn from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Reshape returns a view sharing Data with a new shape of equal volume.
// One dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for reshape of %d elements to %v", len(t.Data), shape))
		}
		shape[infer] = len(t.Data) / known
		known *= shape[infer]
	}
	if known != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape volume mismatch: %d elements to shape %v", len(t.Data), shape))
	}
	return &Tensor{Shape: shape, Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// MulInPlace multiplies t elementwise by o (Hadamard product).
func (t *Tensor) MulInPlace(o *Tensor) {
	checkSameLen(t, o, "MulInPlace")
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// Mul returns the elementwise product of a and b as a new tensor.
func Mul(a, b *Tensor) *Tensor {
	checkSameLen(a, b, "Mul")
	c := New(a.Shape...)
	for i := range c.Data {
		c.Data[i] = a.Data[i] * b.Data[i]
	}
	return c
}

// Add returns the elementwise sum of a and b as a new tensor.
func Add(a, b *Tensor) *Tensor { return AddInto(New(a.Shape...), a, b) }

// AddInto writes the elementwise sum of a and b into dst, which must have
// their volume, and returns dst. Every element of dst is overwritten.
func AddInto(dst, a, b *Tensor) *Tensor {
	checkSameLen(a, b, "Add")
	checkSameLen(dst, a, "AddInto")
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
	return dst
}

// ConcatInto concatenates tensors along dimension 0 into dst. All inputs
// must share the trailing dimensions, and dst must have the concatenated
// shape: the inputs' leading dimensions summed. It is the batching
// primitive: B single-sample [1,C,H,W] tensors become one [B,C,H,W] batch
// that a single forward pass (one GEMM per layer) can serve. Every element
// of dst is overwritten, so dst may be an uninitialized scratch buffer.
// Returns dst.
func ConcatInto(ts []*Tensor, dst *Tensor) *Tensor {
	lead := concatLead(ts)
	if len(dst.Shape) != len(ts[0].Shape) || dst.Shape[0] != lead || !slices.Equal(dst.Shape[1:], ts[0].Shape[1:]) {
		panic(fmt.Sprintf("tensor: ConcatInto dst shape %v, want lead %d and trailing %v", dst.Shape, lead, ts[0].Shape[1:]))
	}
	off := 0
	for _, t := range ts {
		copy(dst.Data[off:], t.Data)
		off += len(t.Data)
	}
	return dst
}

// concatLead validates the inputs of a concat and returns the summed lead
// dimension; the result's trailing dimensions are the first input's.
func concatLead(ts []*Tensor) int {
	if len(ts) == 0 {
		panic("tensor: ConcatInto of zero tensors")
	}
	first := ts[0]
	lead := 0
	for _, t := range ts {
		if len(t.Shape) != len(first.Shape) {
			panic(fmt.Sprintf("tensor: ConcatInto rank mismatch: %v vs %v", t.Shape, first.Shape))
		}
		if !slices.Equal(t.Shape[1:], first.Shape[1:]) {
			panic(fmt.Sprintf("tensor: ConcatInto trailing-shape mismatch: %v vs %v", t.Shape, first.Shape))
		}
		lead += t.Shape[0]
	}
	return lead
}

// CacheBlockF64 is the cache-block edge of the float64 transpose: the
// square tile side (in elements) below which two tiles — one read, one
// written — fit in a 16 KiB half-L1 budget (2·32²·8 B = 16 KiB).
const CacheBlockF64 = 32

// Transpose returns mᵀ for a rank-2 tensor.
func Transpose(m *Tensor) *Tensor {
	if len(m.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires rank-2, got %v", m.Shape))
	}
	return TransposeInto(m, New(m.Shape[1], m.Shape[0]))
}

// TransposeInto writes mᵀ into dst, which must be rank-2 with the
// transposed shape; every element of dst is overwritten, so dst may be an
// uninitialized scratch buffer. The copy is cache-blocked: walking the
// source row-major would stride the destination by its full row length, so
// both sides are visited in square tiles instead. Returns dst.
func TransposeInto(m, dst *Tensor) *Tensor {
	if len(m.Shape) != 2 {
		panic(fmt.Sprintf("tensor: TransposeInto requires rank-2, got %v", m.Shape))
	}
	r, c := m.Shape[0], m.Shape[1]
	if len(dst.Shape) != 2 || dst.Shape[0] != c || dst.Shape[1] != r {
		panic(fmt.Sprintf("tensor: TransposeInto dst %v, want [%d %d]", dst.Shape, c, r))
	}
	for i0 := 0; i0 < r; i0 += CacheBlockF64 {
		i1 := i0 + CacheBlockF64
		if i1 > r {
			i1 = r
		}
		for j0 := 0; j0 < c; j0 += CacheBlockF64 {
			j1 := j0 + CacheBlockF64
			if j1 > c {
				j1 = c
			}
			for i := i0; i < i1; i++ {
				src := m.Data[i*c+j0 : i*c+j1]
				for j, v := range src {
					dst.Data[(j0+j)*r+i] = v
				}
			}
		}
	}
	return dst
}

// CountNonZero returns the number of elements that are not exactly zero.
func (t *Tensor) CountNonZero() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Equal reports whether a and b have identical shape and elementwise values
// within tolerance tol.
func Equal(a, b *Tensor, tol float64) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func checkSameLen(a, b *Tensor, op string) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s volume mismatch: %v vs %v", op, a.Shape, b.Shape))
	}
}

func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}
