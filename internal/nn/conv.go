package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a standard 2-D convolution lowered onto GEMM via im2col.
// Weights have shape [OutC, InC, KH, KW]; the pruning view is the
// [OutC, InC*KH*KW] matrix whose columns form the reduction dimension —
// the same reshape the CRISP paper applies before N:M and block pruning.
type Conv2D struct {
	Geom   tensor.ConvGeom
	OutC   int
	Weight *Param
	Bias   *Param // nil when the layer is followed by batch norm

	// Training state (see workspace.go): batch is the batch size Backward
	// checks dy against (Geom holds the input size of the last training
	// pass), cols and weff what it reads back from Forward, out and dx what
	// the two passes return; the rest is scratch either pass overwrites.
	batch                              int
	cols, weff, outMat, dcols, out, dx buffer
	dyMat, dw                          []float64
}

// NewConv2D constructs a convolution with He-initialized weights.
// withBias disables the bias when a batch-norm layer follows.
func NewConv2D(name string, rng *rand.Rand, inC, outC, kh, kw, stride, pad int, withBias bool) *Conv2D {
	fanIn := inC * kh * kw
	std := math.Sqrt(2.0 / float64(fanIn))
	w := tensor.Randn(rng, std, outC, inC, kh, kw)
	c := &Conv2D{
		Geom:   tensor.ConvGeom{InC: inC, KH: kh, KW: kw, Stride: stride, Pad: pad},
		OutC:   outC,
		Weight: newParam(name+".weight", w, outC, fanIn, true),
	}
	if withBias {
		c.Bias = newParam(name+".bias", tensor.New(outC), outC, 1, false)
		c.Bias.NoDecay = true
	}
	return c
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: Conv2D expects [N,C,H,W], got %v", x.Shape))
	}
	g := c.Geom
	g.InH, g.InW = x.Shape[2], x.Shape[3]
	if x.Shape[1] != g.InC {
		panic(fmt.Sprintf("nn: Conv2D input channels %d != %d", x.Shape[1], g.InC))
	}
	n := x.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	p := oh * ow
	k := g.InC * g.KH * g.KW
	weff := c.weff.masked(train, c.Weight) // [S, K] in memory
	cols := tensor.Im2ColInto(x, g, c.cols.result(train, k, n*p))
	outMat := c.outMat.result(train, c.OutC, n*p)
	tensor.Gemm(false, false, c.OutC, n*p, k, 1, weff.Data, cols.Data, 0, outMat.Data)
	var bias []float64
	if c.Bias != nil {
		bias = c.Bias.W.Data
	}
	y := c.out.result(train, n, c.OutC, oh, ow)
	ConvOutInto(outMat.Data, bias, y.Data, n, c.OutC, p)
	if train {
		c.Geom, c.batch = g, n
	}
	return y
}

// ConvOutInto re-lays a convolution's GEMM output out: outMat is
// [outC, N·P], one row per output channel over every sample's p positions,
// and y receives it as [N, outC, P] with bias[s] added to channel s (no bias
// when nil). Every element of y is written.
func ConvOutInto(outMat, bias, y []float64, n, outC, p int) {
	for s := 0; s < outC; s++ {
		b := 0.0
		if bias != nil {
			b = bias[s]
		}
		src := outMat[s*n*p : (s+1)*n*p]
		for i := 0; i < n; i++ {
			dst := y[(i*outC+s)*p : (i*outC+s+1)*p]
			for j, v := range src[i*p : (i+1)*p] {
				dst[j] = v + b
			}
		}
	}
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := c.batch
	oh, ow := c.Geom.OutH(), c.Geom.OutW()
	p := oh * ow
	if len(dy.Shape) != 4 || dy.Shape[0] != n || dy.Shape[1] != c.OutC || dy.Shape[2] != oh || dy.Shape[3] != ow {
		panic(fmt.Sprintf("nn: Conv2D backward shape %v does not match cached forward (%d,%d,%d,%d)", dy.Shape, n, c.OutC, oh, ow))
	}
	// Re-layout dy [N][S][P] → [S][N*P].
	c.dyMat = grow(c.dyMat, c.OutC*n*p)
	dyMat := c.dyMat
	for s := 0; s < c.OutC; s++ {
		dst := dyMat[s*n*p : (s+1)*n*p]
		for b := 0; b < n; b++ {
			copy(dst[b*p:(b+1)*p], dy.Data[(b*c.OutC+s)*p:(b*c.OutC+s+1)*p])
		}
	}
	// dW = dyMat · colsᵀ  (dense gradient: straight-through estimator).
	k := c.Geom.InC * c.Geom.KH * c.Geom.KW
	c.dw = grow(c.dw, c.OutC*k)
	tensor.Gemm(false, true, c.OutC, k, n*p, 1, dyMat, c.cols.t.Data, 0, c.dw)
	accumulate(c.Weight.Grad.Data, c.dw)
	// Bias gradient: row sums of dyMat.
	if c.Bias != nil {
		for s := 0; s < c.OutC; s++ {
			sum := 0.0
			for _, v := range dyMat[s*n*p : (s+1)*n*p] {
				sum += v
			}
			c.Bias.Grad.Data[s] += sum
		}
	}
	// dx via dcols = Weffᵀ · dyMat, then col2im.
	dcols := c.dcols.take(k, n*p)
	tensor.Gemm(true, false, k, n*p, c.OutC, 1, c.weff.t.Data, dyMat, 0, dcols.Data)
	return tensor.Col2ImInto(dcols, n, c.Geom, c.dx.take(n, c.Geom.InC, c.Geom.InH, c.Geom.InW))
}

func (c *Conv2D) trainingStateBytes() int64 {
	return bufferBytes(&c.cols, &c.weff, &c.outMat, &c.dcols, &c.out, &c.dx) + sliceBytes(c.dyMat, c.dw)
}

func (c *Conv2D) releaseTrainingState() {
	c.cols, c.weff, c.outMat, c.dcols, c.out, c.dx = buffer{}, buffer{}, buffer{}, buffer{}, buffer{}, buffer{}
	c.dyMat, c.dw = nil, nil
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// DepthwiseConv2D convolves each input channel with its own single kernel
// (channel multiplier 1), the core of MobileNet's separable blocks. Weights
// have shape [C, KH, KW]; the pruning view is [C, KH*KW]. The kernels are
// tiny, so the layer is block-exempt: it participates in N:M pruning only.
type DepthwiseConv2D struct {
	Geom   tensor.ConvGeom // InC == OutC
	Weight *Param
	Bias   *Param

	// Training state (see workspace.go): the batch size, input and masked
	// weight Backward reads back (Geom holds the input size of the last
	// training pass), and what the two passes return.
	batch         int
	x             *tensor.Tensor
	weff, out, dx buffer
}

// NewDepthwiseConv2D constructs a depthwise convolution.
func NewDepthwiseConv2D(name string, rng *rand.Rand, c, kh, kw, stride, pad int, withBias bool) *DepthwiseConv2D {
	std := math.Sqrt(2.0 / float64(kh*kw))
	w := tensor.Randn(rng, std, c, kh, kw)
	d := &DepthwiseConv2D{
		Geom:   tensor.ConvGeom{InC: c, KH: kh, KW: kw, Stride: stride, Pad: pad},
		Weight: newParam(name+".weight", w, c, kh*kw, true),
	}
	d.Weight.BlockExempt = true
	if withBias {
		d.Bias = newParam(name+".bias", tensor.New(c), c, 1, false)
		d.Bias.NoDecay = true
	}
	return d
}

// Forward implements Layer.
func (d *DepthwiseConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != d.Geom.InC {
		panic(fmt.Sprintf("nn: DepthwiseConv2D expects [N,%d,H,W], got %v", d.Geom.InC, x.Shape))
	}
	g := d.Geom
	g.InH, g.InW = x.Shape[2], x.Shape[3]
	n, cch := x.Shape[0], g.InC
	oh, ow := g.OutH(), g.OutW()
	weff, y := d.weff.masked(train, d.Weight), d.out.result(train, n, cch, oh, ow)
	var bias []float64
	if d.Bias != nil {
		bias = d.Bias.W.Data
	}
	DepthwiseInto(x.Data, weff.Data, bias, y.Data, g, n)
	if train {
		d.Geom, d.batch, d.x = g, n, x
	}
	return y
}

// DepthwiseInto writes the depthwise convolution of x ([N, C, InH, InW],
// with g's input size set) by the per-channel kernels w ([C, KH·KW]) into y
// ([N, C, OutH, OutW]), adding bias[c] to channel c (no bias when nil).
// Taps that fall in the padding are skipped. Every element of y is written.
func DepthwiseInto(x, w, bias, y []float64, g tensor.ConvGeom, n int) {
	cch, oh, ow := g.InC, g.OutH(), g.OutW()
	for b := 0; b < n; b++ {
		for ch := 0; ch < cch; ch++ {
			src := x[(b*cch+ch)*g.InH*g.InW : (b*cch+ch+1)*g.InH*g.InW]
			ker := w[ch*g.KH*g.KW : (ch+1)*g.KH*g.KW]
			dst := y[(b*cch+ch)*oh*ow : (b*cch+ch+1)*oh*ow]
			bv := 0.0
			if bias != nil {
				bv = bias[ch]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bv
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							s += ker[kh*g.KW+kw] * src[iy*g.InW+ix]
						}
					}
					dst[oy*ow+ox] = s
				}
			}
		}
	}
}

// Backward implements Layer.
func (d *DepthwiseConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := d.Geom
	n, cch := d.batch, g.InC
	oh, ow := g.OutH(), g.OutW()
	dx := d.dx.zeroed(n, cch, g.InH, g.InW) // accumulated below
	weff := &d.weff.t
	for b := 0; b < n; b++ {
		for ch := 0; ch < cch; ch++ {
			src := d.x.Data[(b*cch+ch)*g.InH*g.InW : (b*cch+ch+1)*g.InH*g.InW]
			dxc := dx.Data[(b*cch+ch)*g.InH*g.InW : (b*cch+ch+1)*g.InH*g.InW]
			ker := weff.Data[ch*g.KH*g.KW : (ch+1)*g.KH*g.KW]
			dker := d.Weight.Grad.Data[ch*g.KH*g.KW : (ch+1)*g.KH*g.KW]
			dyc := dy.Data[(b*cch+ch)*oh*ow : (b*cch+ch+1)*oh*ow]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := dyc[oy*ow+ox]
					if gv == 0 {
						continue
					}
					if d.Bias != nil {
						d.Bias.Grad.Data[ch] += gv
					}
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							dker[kh*g.KW+kw] += gv * src[iy*g.InW+ix]
							dxc[iy*g.InW+ix] += gv * ker[kh*g.KW+kw]
						}
					}
				}
			}
		}
	}
	return dx
}

func (d *DepthwiseConv2D) trainingStateBytes() int64 {
	return bufferBytes(&d.weff, &d.out, &d.dx) // x is its producer's
}

func (d *DepthwiseConv2D) releaseTrainingState() {
	d.x, d.weff, d.out, d.dx = nil, buffer{}, buffer{}, buffer{}
}

// Params implements Layer.
func (d *DepthwiseConv2D) Params() []*Param {
	if d.Bias != nil {
		return []*Param{d.Weight, d.Bias}
	}
	return []*Param{d.Weight}
}
