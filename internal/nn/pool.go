package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D downsamples with a k×k max window and equal stride.
type MaxPool2D struct {
	K, Stride int

	// Training state (see workspace.go): the flat input index of each
	// output element's max, and what the two passes return.
	argmax  []int
	inShape []int
	out, dx buffer
}

// NewMaxPool2D builds a max-pooling layer (stride defaults to k when 0).
func NewMaxPool2D(k, stride int) *MaxPool2D {
	if stride == 0 {
		stride = k
	}
	return &MaxPool2D{K: k, Stride: stride}
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects [N,C,H,W], got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-m.K)/m.Stride + 1
	ow := (w-m.K)/m.Stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D window %d exceeds input %dx%d", m.K, h, w))
	}
	y := m.out.result(train, n, c, oh, ow)
	var argmax []int
	if train {
		if cap(m.argmax) < y.Len() {
			m.argmax = make([]int, y.Len())
		}
		m.argmax = m.argmax[:y.Len()]
		m.inShape = append(m.inShape[:0], x.Shape...)
		argmax = m.argmax
	}
	MaxPoolInto(x.Data, y.Data, argmax, n*c, h, w, m.K, m.Stride)
	return y
}

// MaxPoolInto writes the maxima of the k×k windows at the given stride over
// x's planes (planes of them, each h×w) into y, plane by plane. argmax, when
// non-nil, receives each output's flat index into x: the first maximum in
// window order, which Backward routes the gradient to. Every element of y is
// written.
func MaxPoolInto(x, y []float64, argmax []int, planes, h, w, k, stride int) {
	oh, ow := (h-k)/stride+1, (w-k)/stride+1
	for pl := 0; pl < planes; pl++ {
		plane := x[pl*h*w : (pl+1)*h*w]
		out := y[pl*oh*ow : (pl+1)*oh*ow]
		if argmax == nil {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := plane[oy*stride*w+ox*stride]
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							if v := plane[(oy*stride+ky)*w+ox*stride+kx]; v > best {
								best = v
							}
						}
					}
					out[oy*ow+ox] = best
				}
			}
			continue
		}
		arg := argmax[pl*oh*ow : (pl+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := oy*stride*w + ox*stride
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						if i := (oy*stride+ky)*w + ox*stride + kx; plane[i] > plane[best] {
							best = i
						}
					}
				}
				out[oy*ow+ox] = plane[best]
				arg[oy*ow+ox] = pl*h*w + best
			}
		}
	}
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := m.dx.zeroed(m.inShape...) // accumulated below
	for i, v := range dy.Data {
		dx.Data[m.argmax[i]] += v
	}
	return dx
}

func (m *MaxPool2D) trainingStateBytes() int64 {
	return int64(cap(m.argmax))*8 + bufferBytes(&m.out, &m.dx)
}

func (m *MaxPool2D) releaseTrainingState() { m.argmax, m.out, m.dx = nil, buffer{}, buffer{} }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool averages over the spatial dimensions, mapping [N,C,H,W]
// to [N,C].
type GlobalAvgPool struct {
	// Training state (see workspace.go): the input shape Backward restores,
	// and what the two passes return.
	inShape []int
	out, dx buffer
}

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool expects [N,C,H,W], got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if train {
		g.inShape = append(g.inShape[:0], x.Shape...)
	}
	y := g.out.result(train, n, c)
	GlobalAvgPoolInto(x.Data, y.Data, h*w)
	return y
}

// GlobalAvgPoolInto writes the mean of each hw-element plane of x into y,
// one element per plane. Every element of y is written.
func GlobalAvgPoolInto(x, y []float64, hw int) {
	inv := 1.0 / float64(hw)
	for i := range y {
		s := 0.0
		for _, v := range x[i*hw : (i+1)*hw] {
			s += v
		}
		y[i] = s * inv
	}
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	dx := g.dx.take(g.inShape...)
	inv := 1.0 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			gv := dy.Data[b*c+ch] * inv
			plane := dx.Data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			for i := range plane {
				plane[i] = gv
			}
		}
	}
	return dx
}

func (g *GlobalAvgPool) trainingStateBytes() int64 { return bufferBytes(&g.out, &g.dx) }

func (g *GlobalAvgPool) releaseTrainingState() { g.out, g.dx = buffer{}, buffer{} }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }
