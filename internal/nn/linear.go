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

	rows rowLinear // training state (see workspace.go)
}

// NewLinear constructs a fully connected layer with He initialization.
func NewLinear(name string, rng *rand.Rand, in, out int, prunable bool) *Linear {
	w, b := newRowParams(name, rng, in, out, prunable)
	return &Linear{In: in, Out: out, Weight: w, Bias: b}
}

// newRowParams makes a row-linear layer's He-initialized [out, in] weight
// and its zero bias.
func newRowParams(name string, rng *rand.Rand, in, out int, prunable bool) (w, b *Param) {
	std := math.Sqrt(2.0 / float64(in))
	w = newParam(name+".weight", tensor.Randn(rng, std, out, in), out, in, prunable)
	b = newParam(name+".bias", tensor.New(out), out, 1, false)
	b.NoDecay = true
	return w, b
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N,%d], got %v", l.In, x.Shape))
	}
	return l.rows.forward(l.Weight, l.Bias, x.Data, train, x.Shape[0], l.Out)
}

// Backward implements Layer.
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return l.rows.backward(l.Weight, l.Bias, dy, l.rows.dx.take(dy.Shape[0], l.In), 0)
}

func (l *Linear) trainingStateBytes() int64 { return l.rows.trainingStateBytes() }

func (l *Linear) releaseTrainingState() { l.rows = rowLinear{} }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// rowLinear is the row-linear core: y = x·Wᵀ + b over the rows of x, and
// its backward. Linear, TokenLinear, PatchEmbed (over its patches) and each
// of attention's four projections run on one, passing their [Out, In]
// weight and optional bias. Its fields are the training state (see
// workspace.go): the input rows and the masked weight backward reads back
// (the rows are the caller's storage, not counted here), the output, the
// input gradient and the dW scratch.
type rowLinear struct {
	x             []float64
	weff, out, dx buffer
	dw            []float64
}

// forward writes x·Wᵀ (+ bias, when non-nil) over the rows of x, In = w.Cols
// elements each, into the output, shaped shape, and returns it: the core's
// buffer in a training pass, a fresh tensor in an eval-mode one.
func (r *rowLinear) forward(w, bias *Param, x []float64, train bool, shape ...int) *tensor.Tensor {
	weff, y := r.weff.masked(train, w), r.out.result(train, shape...)
	if train {
		r.x = x
	}
	rows, out := len(x)/w.Cols, w.Rows
	tensor.Gemm(false, true, rows, out, w.Cols, 1, x, weff.Data, 0, y.Data)
	if bias != nil {
		for i := 0; i < rows; i++ {
			row := y.Data[i*out : (i+1)*out]
			for j := range row {
				row[j] += bias.W.Data[j]
			}
		}
	}
	return y
}

// backward accumulates dW = dyᵀ·x (dense: the straight-through estimator)
// into w's gradient and dy's column sums into bias's (when non-nil), then
// writes dy·(W ⊙ Mask) into dx — adds it, with beta 1 — and returns dx.
func (r *rowLinear) backward(w, bias *Param, dy, dx *tensor.Tensor, beta float64) *tensor.Tensor {
	out, in := w.Rows, w.Cols
	rows := len(dy.Data) / out
	r.dw = grow(r.dw, out*in)
	tensor.Gemm(true, false, out, in, rows, 1, dy.Data, r.x, 0, r.dw)
	accumulate(w.Grad.Data, r.dw)
	if bias != nil {
		for i := 0; i < rows; i++ {
			for j := 0; j < out; j++ {
				bias.Grad.Data[j] += dy.Data[i*out+j]
			}
		}
	}
	tensor.Gemm(false, false, rows, in, out, 1, dy.Data, r.weff.t.Data, beta, dx.Data)
	return dx
}

func (r *rowLinear) trainingStateBytes() int64 {
	return sliceBytes(r.dw) + bufferBytes(&r.weff, &r.out, &r.dx)
}
