package inference

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/format"
	"repro/internal/tensor"
)

// TestQuantConvForwardMatchesReference pins the quantize-before-im2col
// path against a naive integer reference: per-sample scales, one biased
// code per input element, explicit im2col duplication and a scalar
// Σ code_w·code_b accumulation. The packed gather, the SWAR kernel and the
// bias correction must reproduce it exactly — integer arithmetic leaves no
// rounding slack, and the final store multiplies the same three factors.
func TestQuantConvForwardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cases := []struct {
		name string
		g    tensor.ConvGeom
		outC int
	}{
		{"3x3 pad1 stride1", tensor.ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8},
		{"3x3 pad0 stride1", tensor.ConvGeom{InC: 2, InH: 6, InW: 8, KH: 3, KW: 3, Stride: 1, Pad: 0}, 5},
		{"2x2 pad0 stride2", tensor.ConvGeom{InC: 4, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2, Pad: 0}, 6},
		{"5x5 pad2 stride1", tensor.ConvGeom{InC: 1, InH: 10, InW: 10, KH: 5, KW: 5, Stride: 1, Pad: 2}, 4},
	}
	for _, tc := range cases {
		g := tc.g
		oh, ow := g.OutH(), g.OutW()
		if !quantConvSupported(ow) {
			t.Fatalf("%s: fixture must have even output width, got %d", tc.name, ow)
		}
		n := 3
		w := tensor.Randn(rng, 0.5, tc.outC, g.InC*g.KH*g.KW)
		// Sparsify irregularly so sign spans and zero-code drops are hit.
		for i := range w.Data {
			if i%3 == 0 {
				w.Data[i] = 0
			}
		}
		qp, err := format.EncodeCSR(w).Compile().Quantize()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x := tensor.Randn(rng, 1.5, n, g.InC, g.InH, g.InW)

		got := planned(func(a *arena) *tensor.Tensor { return quantConvForward(qp, x, g, n, oh, ow, a) })

		// Reference: same quantization decisions, naive evaluation.
		vol := g.InC * g.InH * g.InW
		scales := make([]float64, n)
		codes := make([]int64, n*vol)
		for b := 0; b < n; b++ {
			maxAbs := 0.0
			for _, v := range x.Data[b*vol : (b+1)*vol] {
				if av := math.Abs(v); av > maxAbs {
					maxAbs = av
				}
			}
			scales[b] = 1
			if maxAbs > 0 {
				scales[b] = maxAbs / 127
			}
			for i, v := range x.Data[b*vol : (b+1)*vol] {
				codes[b*vol+i] = int64(format.EncodeBiased(v, 1/scales[b])) - 128
			}
		}
		cols := tensor.Im2Col(x, g) // float reference for the gather indices
		for r := 0; r < qp.Rows; r++ {
			for b := 0; b < n; b++ {
				for p := 0; p < oh*ow; p++ {
					j := b*oh*ow + p
					acc := int64(0)
					for i := qp.RowPtr[r]; i < qp.RowPtr[r+1]; i++ {
						// The im2col row of this tap holds the float value;
						// recover the code through the sample's scale.
						fv := cols.Data[int(qp.Col[i])*n*oh*ow+j]
						code := int64(format.EncodeBiased(fv, 1/scales[b])) - 128
						acc += int64(qp.Code[i]) * code
					}
					want := float64(acc) * qp.RowScale[r] * scales[b]
					if gv := got.Data[r*n*oh*ow+j]; gv != want {
						t.Fatalf("%s: out[%d][%d] = %v, reference %v", tc.name, r, j, gv, want)
					}
				}
			}
		}
	}
}

// TestPackIm2ColPadding: every packed lane that corresponds to an
// out-of-image tap must hold the biased zero, and in-image lanes must hold
// the sample's code — checked against the float im2col matrix, whose
// padding semantics are the reference.
func TestPackIm2ColPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	oh, ow := g.OutH(), g.OutW()
	n := 2
	x := tensor.Randn(rng, 1, n, g.InC, g.InH, g.InW)
	vol := g.InC * g.InH * g.InW

	codes := make([]uint64, n*vol)
	invs := make([]float64, n)
	for b := 0; b < n; b++ {
		maxAbs := 0.0
		for _, v := range x.Data[b*vol : (b+1)*vol] {
			if av := math.Abs(v); av > maxAbs {
				maxAbs = av
			}
		}
		invs[b] = 127 / maxAbs
		for i, v := range x.Data[b*vol : (b+1)*vol] {
			codes[b*vol+i] = format.EncodeBiased(v, invs[b])
		}
	}
	colsN := n * oh * ow
	halfW := colsN / 2
	packed := make([]uint64, g.InC*g.KH*g.KW*halfW)
	packIm2Col(codes, g, n, oh, ow, packed, halfW)

	ref := tensor.Im2Col(x, g)
	for r := 0; r < g.InC*g.KH*g.KW; r++ {
		for j := 0; j < colsN; j++ {
			lane := (packed[r*halfW+j/2] >> (32 * uint(j&1))) & 0xffffffff
			fv := ref.Data[r*colsN+j]
			b := j / (oh * ow)
			if fv == 0 {
				// Padding tap (or a true zero): either way the code is the
				// biased zero.
				if lane != 128 {
					t.Fatalf("tap row %d col %d: zero/padding lane holds %d, want 128", r, j, lane)
				}
				continue
			}
			if want := format.EncodeBiased(fv, invs[b]); lane != want {
				t.Fatalf("tap row %d col %d: lane %d, want %d", r, j, lane, want)
			}
		}
	}
}

// planned runs draw on an arena it first sizes by a walk of draw itself, as
// an engine's pass does.
func planned(draw func(*arena) *tensor.Tensor) *tensor.Tensor {
	a := &arena{hdrs: make([]hdr, 1), sizing: true}
	draw(a)
	a.plan, a.sizing = a.drew, false
	a.rewind()
	a.f64, a.u64 = make([]float64, a.plan.f64), make([]uint64, a.plan.u64)
	return draw(a)
}
