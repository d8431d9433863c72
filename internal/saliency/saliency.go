// Package saliency computes the class-aware saliency score (CASS) of the
// CRISP paper: the first-order Taylor importance T_w = |∇L(W) ⊙ W| with the
// gradient averaged over samples drawn from the user-preferred classes
// (paper Eq. 1). Class-agnostic alternatives are provided for the ablation
// experiments.
package saliency

import (
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Method selects the importance criterion.
type Method int

const (
	// Taylor is the paper's CASS: |mean gradient ⊙ weight|.
	Taylor Method = iota
	// Magnitude is the class-agnostic |weight| baseline.
	Magnitude
	// GradOnly is |mean gradient| alone (diagnostic).
	GradOnly
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Taylor:
		return "taylor-cass"
	case Magnitude:
		return "magnitude"
	case GradOnly:
		return "grad-only"
	default:
		return "unknown"
	}
}

// Scores maps each prunable parameter to its per-element importance tensor
// (same shape as the weights, all entries ≥ 0).
type Scores map[*nn.Param]*tensor.Tensor

// Compute returns importance scores for every prunable parameter of clf.
// For gradient-based methods it accumulates gradients over the entire split
// (in batches of batchSize) without stepping the optimizer; the parameters'
// gradient buffers are left cleared. The forward passes run in training mode
// — consistent with the paper, where CASS estimation happens amid
// class-aware fine-tuning.
func Compute(clf *nn.Classifier, split data.Split, batchSize int, method Method) Scores {
	params := clf.PrunableParams()
	out := make(Scores, len(params))

	if method == Magnitude {
		for _, p := range params {
			s := tensor.New(p.W.Shape...)
			for i, v := range p.W.Data {
				s.Data[i] = math.Abs(v)
			}
			out[p] = s
		}
		return out
	}

	all := clf.Params()
	nn.ZeroGrad(all)
	n := split.Len()
	c, h, w := split.X.Shape[1], split.X.Shape[2], split.X.Shape[3]
	vol := c * h * w
	// The batches are consecutive rows of the split, so one header walks
	// them: a training pass only reads its input.
	x := &tensor.Tensor{Shape: []int{0, c, h, w}}
	for start := 0; start < n; start += batchSize {
		end := min(start+batchSize, n)
		x.Shape[0], x.Data = end-start, split.X.Data[start*vol:end*vol]
		clf.TrainBatch(x, split.Labels[start:end])
	}
	// TrainBatch averages the loss within a batch; average across batches so
	// the scale matches Eq. 1's 1/H_uc normalization (up to ragged batches).
	batches := float64((n + batchSize - 1) / batchSize)
	if batches == 0 {
		batches = 1
	}
	for _, p := range params {
		s := tensor.New(p.W.Shape...)
		for i := range p.W.Data {
			g := p.Grad.Data[i] / batches
			switch method {
			case GradOnly:
				s.Data[i] = math.Abs(g)
			default: // Taylor
				s.Data[i] = math.Abs(g * p.W.Data[i])
			}
		}
		out[p] = s
	}
	nn.ZeroGrad(all)
	return out
}

// MatrixView returns the score tensor of p reshaped to its pruning view.
func (s Scores) MatrixView(p *nn.Param) *tensor.Tensor {
	return s[p].Reshape(p.Rows, p.Cols)
}
