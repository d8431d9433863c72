// Package nn is a small, self-contained neural-network substrate: conv /
// depthwise-conv / linear / batch-norm / pooling layers with exact
// backpropagation, a softmax cross-entropy loss, and SGD with momentum.
//
// Every learnable parameter carries an optional binary pruning mask. The
// forward pass always uses the effective weight W ⊙ Mask, while the backward
// pass accumulates *dense* gradients (the straight-through estimator from the
// CRISP paper): pruned weights keep receiving gradient signal and may revive
// when the mask is recomputed at the next pruning iteration.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one learnable tensor with its gradient and optional pruning mask.
type Param struct {
	// Name identifies the parameter for reporting ("conv1.weight", ...).
	Name string
	// W holds the dense weights. Pruning never zeroes W itself; it only
	// writes the mask, so the straight-through estimator can revive weights.
	W *tensor.Tensor
	// Grad accumulates dL/dW (dense, unmasked).
	Grad *tensor.Tensor
	// Mask, when non-nil, is a {0,1} tensor with W's volume. The layer
	// forward pass multiplies it in.
	Mask *tensor.Tensor

	// Rows and Cols describe the 2-D pruning view of W: the reshaped matrix
	// has Rows output rows and Cols reduction columns (Rows*Cols == W.Len()).
	Rows, Cols int

	// Prunable marks weights eligible for CRISP pruning (conv and linear
	// weights; biases and norm parameters are not).
	Prunable bool
	// BlockExempt marks prunable weights that receive only N:M pruning and
	// no coarse block pruning (e.g. tiny depthwise kernels).
	BlockExempt bool
	// NoDecay excludes the parameter from weight decay (biases, norm params).
	NoDecay bool
}

// newParam allocates a parameter with a zeroed gradient and no mask.
func newParam(name string, w *tensor.Tensor, rows, cols int, prunable bool) *Param {
	if rows*cols != w.Len() {
		panic(fmt.Sprintf("nn: param %s matrix view %dx%d does not cover %d elements", name, rows, cols, w.Len()))
	}
	return &Param{
		Name:     name,
		W:        w,
		Grad:     tensor.New(w.Shape...),
		Rows:     rows,
		Cols:     cols,
		Prunable: prunable,
	}
}

// Effective returns W ⊙ Mask as a fresh tensor (or a copy of W when no mask
// is set). Callers may mutate the result freely.
func (p *Param) Effective() *tensor.Tensor {
	e := p.W.Clone()
	if p.Mask != nil {
		e.MulInPlace(p.Mask)
	}
	return e
}

// effectiveInto writes W ⊙ Mask into dst (len W.Len()): the same products
// Effective computes, into a training layer's workspace.
func (p *Param) effectiveInto(dst []float64) {
	if p.Mask == nil {
		copy(dst, p.W.Data)
		return
	}
	for i, m := range p.Mask.Data {
		dst[i] = p.W.Data[i] * m
	}
}

// EnsureMask returns the parameter's mask, allocating an all-ones mask on
// first use.
func (p *Param) EnsureMask() *tensor.Tensor {
	if p.Mask == nil {
		p.Mask = tensor.Full(1, p.W.Shape...)
	}
	return p.Mask
}

// ClearMask removes the mask, restoring dense behaviour.
func (p *Param) ClearMask() { p.Mask = nil }

// Density returns the kept fraction under the current mask (1.0 when dense).
func (p *Param) Density() float64 {
	if p.Mask == nil {
		return 1
	}
	return float64(p.Mask.CountNonZero()) / float64(p.Mask.Len())
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// MatrixView returns W reshaped to the (Rows, Cols) pruning view. The view
// shares storage with W.
func (p *Param) MatrixView() *tensor.Tensor { return p.W.Reshape(p.Rows, p.Cols) }

// MaskMatrixView returns the mask reshaped to (Rows, Cols), allocating the
// mask if needed. The view shares storage with the mask.
func (p *Param) MaskMatrixView() *tensor.Tensor { return p.EnsureMask().Reshape(p.Rows, p.Cols) }
