package tensor

import "fmt"

// ConvGeom describes the spatial geometry of a 2-D convolution.
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial extent
	KH, KW        int // kernel height and width
	Stride        int // common stride for both axes
	Pad           int // symmetric zero padding
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Im2Col lowers a batched image tensor x with shape [N, C, H, W] into a
// matrix of shape [C*KH*KW, N*OutH*OutW] so that convolution becomes a
// GEMM with the weight matrix reshaped to [OutC, C*KH*KW]. Out-of-bounds
// (padding) taps contribute zeros.
func Im2Col(x *Tensor, g ConvGeom) *Tensor {
	n := x.Shape[0]
	return Im2ColInto(x, g, New(g.InC*g.KH*g.KW, n*g.OutH()*g.OutW()))
}

// Im2ColInto is Im2Col writing into dst, which must have shape
// [C*KH*KW, N*OutH*OutW]. Every element of dst is written — padding taps
// store explicit zeros — so dst may be an uninitialized scratch buffer.
// Returns dst.
func Im2ColInto(x *Tensor, g ConvGeom, dst *Tensor) *Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("tensor: Im2Col requires [N,C,H,W] input, got %v", x.Shape))
	}
	n := x.Shape[0]
	if x.Shape[1] != g.InC || x.Shape[2] != g.InH || x.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input %v does not match geometry %+v", x.Shape, g))
	}
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	cols := n * oh * ow
	if len(dst.Shape) != 2 || dst.Shape[0] != rows || dst.Shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2ColInto dst %v, want [%d %d]", dst.Shape, rows, cols))
	}

	// Row index r encodes (c, kh, kw); column index encodes (n, oy, ox).
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				r := (c*g.KH+kh)*g.KW + kw
				d := dst.Data[r*cols : (r+1)*cols]
				// ox ∈ [ox0, ox1) are the taps with in-bounds ix; the rest
				// of the output row is explicit padding zeros.
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
					src := x.Data[(b*g.InC+c)*g.InH*g.InW : (b*g.InC+c+1)*g.InH*g.InW]
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						base := (b*oh + oy) * ow
						row := d[base : base+ow]
						if iy < 0 || iy >= g.InH {
							clear(row)
							continue
						}
						rowSrc := src[iy*g.InW : (iy+1)*g.InW]
						clear(row[:ox0])
						if g.Stride == 1 {
							// Stride-1 taps read consecutive input pixels, so
							// the whole tap row is one contiguous copy — the
							// common case (3×3 stride-1 convs), and the copy
							// is what feeds the SpMM kernels their activation
							// panels, so it runs at memmove speed instead of
							// one element per iteration.
							copy(row[ox0:ox1], rowSrc[ox0+kw-g.Pad:])
						} else {
							for ox := ox0; ox < ox1; ox++ {
								row[ox] = rowSrc[ox*g.Stride+kw-g.Pad]
							}
						}
						clear(row[ox1:])
					}
				}
			}
		}
	}
	return dst
}

// Col2ImInto is the adjoint of Im2Col: it scatters (accumulating) a matrix
// of shape [C*KH*KW, N*OutH*OutW] back into the image tensor dst, which must
// have shape [N, C, H, W]. It is used to backpropagate gradients through the
// im2col lowering. dst is cleared before the scatter, so it may be a dirty
// scratch buffer. Returns dst.
func Col2ImInto(cols *Tensor, n int, g ConvGeom, dst *Tensor) *Tensor {
	oh, ow := g.OutH(), g.OutW()
	rows := g.InC * g.KH * g.KW
	ncols := n * oh * ow
	if len(cols.Shape) != 2 || cols.Shape[0] != rows || cols.Shape[1] != ncols {
		panic(fmt.Sprintf("tensor: Col2Im input %v does not match geometry %+v with batch %d", cols.Shape, g, n))
	}
	if len(dst.Shape) != 4 || dst.Shape[0] != n || dst.Shape[1] != g.InC || dst.Shape[2] != g.InH || dst.Shape[3] != g.InW {
		panic(fmt.Sprintf("tensor: Col2ImInto dst %v, want [%d %d %d %d]", dst.Shape, n, g.InC, g.InH, g.InW))
	}
	x := dst
	clear(x.Data)
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				r := (c*g.KH+kh)*g.KW + kw
				src := cols.Data[r*ncols : (r+1)*ncols]
				for b := 0; b < n; b++ {
					dst := x.Data[(b*g.InC+c)*g.InH*g.InW : (b*g.InC+c+1)*g.InH*g.InW]
					for oy := 0; oy < oh; oy++ {
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						base := (b*oh + oy) * ow
						for ox := 0; ox < ow; ox++ {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							dst[iy*g.InW+ix] += src[base+ox]
						}
					}
				}
			}
		}
	}
	return x
}
