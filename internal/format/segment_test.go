package format

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// segmentEdges is a rows × cols matrix whose entries sit where a plan's
// segments meet: each of cols' listed columns (when inside the matrix) in
// row 0; nothing in row 1; row 2's only entry in the last column, so its
// only span is its last segment; a pair straddling the first edge in row 3;
// a run of five across the second edge in row 4 (a four-entry unroll in
// one segment and a tail in the next); and every column of the first
// segment in row 5. Values are signed, so each int8 segment has both sign
// spans.
func segmentEdges(rng *rand.Rand, rows, cols int) *tensor.Tensor {
	m := tensor.New(rows, cols)
	set := func(r int, cs ...int) {
		for _, c := range cs {
			if r < rows && c < cols {
				m.Data[r*cols+c] = rng.NormFloat64()
			}
		}
	}
	set(0, 0, SegCols-1, SegCols, 2*SegCols-1, 2*SegCols, cols-1)
	set(2, cols-1)
	set(3, SegCols-1, SegCols)
	set(4, 2*SegCols-1, 2*SegCols, 2*SegCols+1, 2*SegCols+2, 2*SegCols+3)
	for c := range SegCols {
		set(5, c)
	}
	return m
}

// int8Reference is the int8 product out[r][j] = Σ code·bcode · rowScale ·
// colScale[j] computed entry by entry from the dense matrix m, with each
// row quantized at max|row|/127 and bcodes the activation codes (unbiased,
// cols × n) — the same three factors the kernel's store multiplies, so
// the kernel must match it exactly.
func int8Reference(m *tensor.Tensor, bcodes []int64, colScale []float64, n int) []float64 {
	rows, cols := m.Shape[0], m.Shape[1]
	out := make([]float64, rows*n)
	for r := range rows {
		row := m.Data[r*cols : (r+1)*cols]
		scale := 0.0
		for _, v := range row {
			scale = max(scale, math.Abs(v))
		}
		scale /= 127
		if scale == 0 {
			scale = 1
		}
		for j := range n {
			acc := int64(0)
			for c, v := range row {
				code := int64(max(-127, min(127, math.Round(v*(1/scale)))))
				acc += code * bcodes[c*n+j]
			}
			out[r*n+j] = float64(acc) * scale * colScale[j]
		}
	}
	return out
}

// TestPlanSegmentBoundaries holds every kernel that rebases its activations
// per segment to a reference that knows no segments, on matrices whose
// entries sit at columns 255, 256, 511, 512 and the last column (MaxCols−1
// for the widest), with empty segments and a row whose only entry is in its
// last segment:
//
//   - the float plan against the CSR row walk (bit for bit), and its layout
//     against the CSR encoding it images;
//   - the int8 image against int8Reference (exactly);
//   - ConvPlan.MatMulBatchLastInto, at 576 columns (3×3 over 64 channels)
//     and at MaxCols (1×1 over MaxCols channels), against the lowered
//     im2col path (Im2ColInto + the CSR row walk);
//   - the int8 conv gather — per-sample activation codes gathered into
//     packed im2col rows, then MatMulPackedInto — against int8Reference
//     over the same codes.
func TestPlanSegmentBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, cols := range []int{SegCols - 1, SegCols, SegCols + 1, 600, MaxCols} {
		m := segmentEdges(rng, 6, cols)
		c := EncodeCSR(m)
		p := c.Compile()
		checkPlanIsCSR(t, "segment edges", p, c)
		q, err := p.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 4, 5} {
			x := tensor.Randn(rng, 1, cols, n)
			checkAgainstStorage(t, storagePlan{"csr", p, c.MatMul}, x, "segment edges")

			colScale, bcodes := make([]float64, n), make([]int64, cols*n)
			for j := range n {
				for r := range cols {
					colScale[j] = max(colScale[j], math.Abs(x.Data[r*n+j]))
				}
				colScale[j] /= 127
				if colScale[j] == 0 {
					colScale[j] = 1
				}
				for r := range cols {
					bcodes[r*n+j] = int64(EncodeBiased(x.Data[r*n+j], 1/colScale[j])) - 128
				}
			}
			got := q.MatMulInto(x, tensor.New(6, n), QuantScratch{})
			for i, want := range int8Reference(m, bcodes, colScale, n) {
				if got.Data[i] != want {
					t.Fatalf("%d columns, batch %d: int8 element %d is %v, reference %v", cols, n, i, got.Data[i], want)
				}
			}
		}
	}

	for _, g := range []tensor.ConvGeom{
		{InC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 4, InW: 4},
		{InC: MaxCols, KH: 1, KW: 1, Stride: 1, Pad: 0, InH: 1, InW: 2},
	} {
		cols := g.InC * g.KH * g.KW
		m := segmentEdges(rng, 6, cols)
		c := EncodeCSR(m)
		p := c.Compile()
		cp := p.CompileConv(new(ConvPlan), g.KH, g.KW, g.Stride, g.Pad)
		q, err := p.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		oh, ow := g.OutH(), g.OutW()
		for _, batch := range []int{1, 3} {
			x := tensor.Randn(rng, 1, batch, g.InC, g.InH, g.InW)
			n := batch * oh * ow
			lowered := tensor.New(cols, n)
			tensor.Im2ColInto(x, g, lowered)
			want := c.MatMul(lowered)

			chw := g.InC * g.InH * g.InW
			xT := tensor.TransposeInto(x.Reshape(batch, chw), tensor.New(chw, batch))
			outT := cp.MatMulBatchLastInto(xT, g, batch, tensor.New(6*oh*ow, batch), make([]float64, cp.ClipFloats()))
			for r := range 6 {
				for b := range batch {
					for pix := range oh * ow {
						if got, w := outT.Data[(r*oh*ow+pix)*batch+b], want.Data[r*n+b*oh*ow+pix]; got != w {
							t.Fatalf("%d-column conv, batch %d: r=%d b=%d pix=%d is %v, lowered %v", cols, batch, r, b, pix, got, w)
						}
					}
				}
			}

			// The int8 gather: one scale a sample, each im2col row's codes
			// packed two lanes a word (padding taps are 0, the biased zero).
			colScale, bcodes := make([]float64, n), make([]int64, cols*n)
			halfW := (n + 1) / 2
			packed := make([]uint64, cols*halfW)
			for b := range batch {
				scale := 0.0
				for _, v := range x.Data[b*chw : (b+1)*chw] {
					scale = max(scale, math.Abs(v))
				}
				scale /= 127
				for j := b * oh * ow; j < (b+1)*oh*ow; j++ {
					colScale[j] = scale
				}
			}
			for r := range cols {
				for j := range n {
					u := EncodeBiased(lowered.Data[r*n+j], 1/colScale[j])
					bcodes[r*n+j] = int64(u) - 128
					packed[r*halfW+j/2] |= u << (32 * uint(j&1))
				}
				if n%2 == 1 {
					packed[r*halfW+halfW-1] |= 128 << 32
				}
			}
			got := q.MatMulPackedInto(packed, colScale, tensor.New(6, n), QuantScratch{})
			for i, w := range int8Reference(m, bcodes, colScale, n) {
				if got.Data[i] != w {
					t.Fatalf("%d-column int8 conv gather, batch %d: element %d is %v, reference %v", cols, batch, i, got.Data[i], w)
				}
			}
		}
	}
}
