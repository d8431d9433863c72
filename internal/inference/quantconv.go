package inference

import (
	"math"

	"repro/internal/format"
	"repro/internal/tensor"
)

// The int8 conv path quantizes *before* im2col. Lowering a convolution to
// SpMM duplicates every input element KH·KW times into the column matrix;
// quantizing that matrix per column (the generic MatMulInto path) would
// therefore pay the encode cost KH·KW times per element — on conv-heavy
// models the encoding pass ends up costing more than the integer MAC it
// feeds. Instead the executor:
//
//  1. computes one symmetric scale per sample (max|x| over the sample's
//     volume — every im2col column of a sample holds only that sample's
//     values, so a per-sample scale is exact per column),
//  2. encodes each input element exactly once into a biased lane code,
//  3. gathers the codes straight into the packed two-lane layout the SWAR
//     kernel consumes (the float column matrix is never materialized;
//     padding taps write the biased zero),
//
// and then enters the shared integer MAC via MatMulPackedInto. The packed
// gather needs an even output width so lane pairs never straddle rows of
// the output image; odd-width geometries (none of the models here) fall
// back to the generic per-column path.

// quantConvSupported reports whether the packed gather handles the
// geometry.
func quantConvSupported(ow int) bool { return ow%2 == 0 && ow > 0 }

// quantConvForward runs the quantized convolution and returns the [S,
// N*OH*OW] output matrix (pre-bias), entirely from arena scratch.
func quantConvForward(qp *format.QuantPlan, x *tensor.Tensor, g tensor.ConvGeom, n, oh, ow int, a *arena) *tensor.Tensor {
	vol := g.InC * g.InH * g.InW
	positions := oh * ow
	cols := n * positions
	halfW := cols / 2 // cols even: ow is even

	codes, packed := a.allocU64(n*vol), a.allocU64(g.InC*g.KH*g.KW*halfW)
	colScale := a.alloc(cols)
	out := a.tensor(qp.Rows, cols)
	sc := format.QuantScratch{AccP: a.allocU64(qp.Rows * halfW), AccN: a.allocU64(qp.Rows * halfW)}
	if a.sizing {
		return out
	}
	// Per-sample scales; one encode per input element.
	for b := 0; b < n; b++ {
		seg := x.Data[b*vol : (b+1)*vol]
		maxAbs := 0.0
		for _, v := range seg {
			if av := math.Abs(v); av > maxAbs {
				maxAbs = av
			}
		}
		scale := 1.0
		if maxAbs > 0 && !math.IsInf(maxAbs, 0) {
			scale = maxAbs / 127
		}
		inv := 1 / scale
		cseg := codes[b*vol : (b+1)*vol]
		for i, v := range seg {
			cseg[i] = format.EncodeBiased(v, inv)
		}
		cs := colScale[b*positions : (b+1)*positions]
		for j := range cs {
			cs[j] = scale
		}
	}

	packIm2Col(codes, g, n, oh, ow, packed, halfW)
	return qp.MatMulPackedInto(packed, colScale, out, sc)
}

// padPair is a packed word of two biased-zero lanes (padding taps).
const padPair = 128 | 128<<32

// packIm2Col is tensor.Im2ColInto's gather with int8 lane codes: row r
// encodes the tap (c, kh, kw), column j the output position (b, oy, ox),
// and each packed word holds columns (2k, 2k+1) — always two positions of
// the same output row, because ow is even. Out-of-image taps store the
// biased zero, mirroring the float kernel's explicit padding zeros.
func packIm2Col(codes []uint64, g tensor.ConvGeom, n, oh, ow int, packed []uint64, halfW int) {
	plane := g.InH * g.InW
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				r := (c*g.KH+kh)*g.KW + kw
				d := packed[r*halfW : (r+1)*halfW]
				// ox ∈ [ox0, ox1) are the taps with an in-bounds input
				// column (same derivation as tensor.Im2ColInto).
				ox0 := 0
				if g.Pad > kw {
					ox0 = (g.Pad - kw + g.Stride - 1) / g.Stride
				}
				ox1 := (g.InW + g.Pad - kw + g.Stride - 1) / g.Stride
				if ox1 > ow {
					ox1 = ow
				}
				if ox1 < 0 {
					ox1 = 0
				}
				if ox0 > ox1 {
					ox0 = ox1
				}
				for b := 0; b < n; b++ {
					src := codes[(b*g.InC+c)*plane : (b*g.InC+c+1)*plane]
					for oy := 0; oy < oh; oy++ {
						dRow := d[((b*oh)+oy)*ow/2 : ((b*oh)+oy+1)*ow/2]
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							for jp := range dRow {
								dRow[jp] = padPair
							}
							continue
						}
						base := iy*g.InW + kw - g.Pad
						for ox := 0; ox < ow; ox += 2 {
							lo := uint64(128)
							if ox >= ox0 && ox < ox1 {
								lo = src[base+ox*g.Stride]
							}
							hi := uint64(128)
							if ox+1 >= ox0 && ox+1 < ox1 {
								hi = src[base+(ox+1)*g.Stride]
							}
							dRow[ox/2] = lo | hi<<32
						}
					}
				}
			}
		}
	}
}
