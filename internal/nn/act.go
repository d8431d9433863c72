package nn

import (
	"math"

	"repro/internal/tensor"
)

// ActStats accumulates activation-sparsity statistics across rectifiers —
// used to validate the activation density the DSTC simulator assumes
// (exp.Harness.ActivationDensity).
type ActStats struct {
	NonZeros, Total int64
}

// Density returns the observed non-zero activation fraction.
func (s *ActStats) Density() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(s.NonZeros) / float64(s.Total)
}

// ReLU applies max(0, x) elementwise. With Cap > 0 it becomes a clipped
// ReLU (ReLU6 in MobileNetV2 uses Cap = 6).
type ReLU struct {
	// Cap, when positive, clips activations at this value (ReLU6 => 6).
	Cap float64
	// Stats, when non-nil, accumulates output sparsity counts of this
	// layer's own Forward passes. A compiled inference engine counts none.
	Stats *ActStats

	// Training state (see workspace.go): the pass-through flags Backward
	// reads back, and what the two passes return.
	pass    []bool
	out, dx buffer
}

// NewReLU returns an unbounded rectifier.
func NewReLU() *ReLU { return &ReLU{} }

// NewReLU6 returns the clipped rectifier used by MobileNetV2.
func NewReLU6() *ReLU { return &ReLU{Cap: 6} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.out.result(train, x.Shape...)
	if train {
		if cap(r.pass) < len(x.Data) {
			r.pass = make([]bool, len(x.Data))
		}
		r.pass = r.pass[:len(x.Data)]
	}
	for i, v := range x.Data {
		out := v
		if v < 0 {
			out = 0
		} else if r.Cap > 0 && v > r.Cap {
			out = r.Cap
		}
		y.Data[i] = out
		if train {
			r.pass[i] = out == v
		}
	}
	if r.Stats != nil {
		r.Stats.Total += int64(len(y.Data))
		for _, v := range y.Data {
			if v != 0 {
				r.Stats.NonZeros++
			}
		}
	}
	return y
}

// CollectActivationStats attaches one shared ActStats to every rectifier
// under l and returns it; subsequent forward passes accumulate into it.
func CollectActivationStats(l Layer) *ActStats {
	stats := &ActStats{}
	Walk(l, func(c Layer) {
		if r, ok := c.(*ReLU); ok {
			r.Stats = stats
		}
	})
	return stats
}

// GELU is the Gaussian-error linear unit (tanh approximation), the standard
// activation in transformer MLPs.
type GELU struct {
	// Training state (see workspace.go).
	x       *tensor.Tensor // the input Backward reads back
	out, dx buffer
}

// geluCoef is the tanh-approximation constant √(2/π).
const geluCoef = 0.7978845608028654

// Gelu computes the tanh-approximated GELU of v.
func Gelu(v float64) float64 {
	return 0.5 * v * (1 + math.Tanh(geluCoef*(v+0.044715*v*v*v)))
}

// geluGrad is d/dv of Gelu.
func geluGrad(v float64) float64 {
	inner := geluCoef * (v + 0.044715*v*v*v)
	t := math.Tanh(inner)
	dInner := geluCoef * (1 + 3*0.044715*v*v)
	return 0.5*(1+t) + 0.5*v*(1-t*t)*dInner
}

// Forward implements Layer.
func (g *GELU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := g.out.result(train, x.Shape...)
	if train {
		g.x = x
	}
	for i, v := range x.Data {
		y.Data[i] = Gelu(v)
	}
	return y
}

// Backward implements Layer.
func (g *GELU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := g.dx.take(dy.Shape...)
	for i, v := range dy.Data {
		dx.Data[i] = v * geluGrad(g.x.Data[i])
	}
	return dx
}

func (g *GELU) trainingStateBytes() int64 { return tensorBytes(g.x) + bufferBytes(&g.out, &g.dx) }

func (g *GELU) releaseTrainingState() { g.x, g.out, g.dx = nil, buffer{}, buffer{} }

// Params implements Layer.
func (g *GELU) Params() []*Param { return nil }

// Backward implements Layer.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := r.dx.take(dy.Shape...)
	for i, v := range dy.Data {
		if r.pass[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

func (r *ReLU) trainingStateBytes() int64 { return int64(cap(r.pass)) + bufferBytes(&r.out, &r.dx) }

func (r *ReLU) releaseTrainingState() { r.pass, r.out, r.dx = nil, buffer{}, buffer{} }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }
