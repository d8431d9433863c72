package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = x·Wᵀ + b with weight shape
// [Out, In]; the pruning view is the weight matrix itself (reduction
// dimension along columns).
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	// Training state (see workspace.go).
	x             *tensor.Tensor // the input Backward reads back
	weff, out, dx buffer
	dw            []float64
}

// NewLinear constructs a fully connected layer with He initialization.
func NewLinear(name string, rng *rand.Rand, in, out int, prunable bool) *Linear {
	std := math.Sqrt(2.0 / float64(in))
	l := &Linear{
		In:     in,
		Out:    out,
		Weight: newParam(name+".weight", tensor.Randn(rng, std, out, in), out, in, prunable),
		Bias:   newParam(name+".bias", tensor.New(out), out, 1, false),
	}
	l.Bias.NoDecay = true
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N,%d], got %v", l.In, x.Shape))
	}
	n := x.Shape[0]
	weff, y := l.weff.masked(train, l.Weight), l.out.result(train, n, l.Out)
	if train {
		l.x = x
	}
	// y = x · Wᵀ
	tensor.Gemm(false, true, n, l.Out, l.In, 1, x.Data, weff.Data, 0, y.Data)
	for b := 0; b < n; b++ {
		row := y.Data[b*l.Out : (b+1)*l.Out]
		for j := range row {
			row[j] += l.Bias.W.Data[j]
		}
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n := dy.Shape[0]
	// dW = dyᵀ · x (dense: straight-through estimator).
	l.dw = grow(l.dw, l.Out*l.In)
	tensor.Gemm(true, false, l.Out, l.In, n, 1, dy.Data, l.x.Data, 0, l.dw)
	accumulate(l.Weight.Grad.Data, l.dw)
	for b := 0; b < n; b++ {
		for j := 0; j < l.Out; j++ {
			l.Bias.Grad.Data[j] += dy.Data[b*l.Out+j]
		}
	}
	// dx = dy · Weff
	dx := l.dx.take(n, l.In)
	tensor.Gemm(false, false, n, l.In, l.Out, 1, dy.Data, l.weff.t.Data, 0, dx.Data)
	return dx
}

func (l *Linear) trainingStateBytes() int64 {
	return tensorBytes(l.x) + bufferBytes(&l.weff, &l.out, &l.dx) + sliceBytes(l.dw)
}

func (l *Linear) releaseTrainingState() {
	l.x, l.weff, l.out, l.dx, l.dw = nil, buffer{}, buffer{}, buffer{}, nil
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }
