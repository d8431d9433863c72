package tensor

import (
	"math/rand"
	"testing"
)

// dirty returns a tensor pre-filled with sentinel garbage, for checking
// that Into kernels overwrite every element (the arena contract).
func dirty(shape ...int) *Tensor {
	return Full(1e30, shape...)
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Shapes straddling the cache-block edge: smaller, exact multiples,
	// ragged remainders, and degenerate single-row/column cases.
	for _, s := range [][2]int{{2, 3}, {32, 32}, {33, 65}, {100, 7}, {1, 129}, {64, 1}} {
		m := Randn(rng, 1, s[0], s[1])
		want := New(s[1], s[0])
		for i := 0; i < s[0]; i++ {
			for j := 0; j < s[1]; j++ {
				want.Data[j*s[0]+i] = m.Data[i*s[1]+j]
			}
		}
		if got := Transpose(m); !Equal(got, want, 0) {
			t.Fatalf("Transpose %v wrong", s)
		}
		if got := TransposeInto(m, dirty(s[1], s[0])); !Equal(got, want, 0) {
			t.Fatalf("TransposeInto %v left dirty elements", s)
		}
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Randn(rng, 1, 37, 53)
	if !Equal(Transpose(Transpose(m)), m, 0) {
		t.Fatal("double transpose is not the identity")
	}
}

func TestTransposePanicsOnBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank-3 input must panic")
		}
	}()
	Transpose(New(2, 3, 4))
}

func TestTransposeIntoPanicsOnDstMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong dst shape must panic")
		}
	}()
	TransposeInto(New(2, 3), New(2, 3))
}

func TestConcatInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6}, 1, 2)
	want := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	got := ConcatInto([]*Tensor{a, b}, dirty(3, 2))
	if !Equal(got, want, 0) {
		t.Fatalf("ConcatInto into a dirty buffer: %v, want %v", got.Data, want.Data)
	}
}

func TestConcatIntoPanicsOnDstMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong dst shape must panic")
		}
	}()
	ConcatInto([]*Tensor{New(2, 2)}, New(3, 2))
}

// TestIm2ColIntoOverwritesDirtyBuffer sweeps conv geometries — strides,
// pads, kernels wider than the stride — and checks Im2ColInto into a
// garbage buffer matches Im2Col into a fresh one, i.e. padding taps are
// written as explicit zeros.
func TestIm2ColIntoOverwritesDirtyBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	geoms := []ConvGeom{
		{InC: 2, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 3, InH: 7, InW: 5, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 2, InH: 6, InW: 6, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{InC: 1, InH: 4, InW: 4, KH: 4, KW: 4, Stride: 4, Pad: 0},
		{InC: 1, InH: 5, InW: 9, KH: 3, KW: 1, Stride: 3, Pad: 2},
	}
	for _, g := range geoms {
		for _, n := range []int{1, 4} {
			x := Randn(rng, 1, n, g.InC, g.InH, g.InW)
			want := Im2Col(x, g)
			got := Im2ColInto(x, g, dirty(g.InC*g.KH*g.KW, n*g.OutH()*g.OutW()))
			if !Equal(got, want, 0) {
				t.Fatalf("geometry %+v batch %d: Im2ColInto differs from Im2Col", g, n)
			}
		}
	}
}
