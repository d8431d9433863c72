package nn

import (
	"repro/internal/tensor"
)

// Classifier wraps a network with a class count and the small amount of
// training/evaluation plumbing the pruning experiments need.
type Classifier struct {
	Name       string
	Net        Layer
	NumClasses int

	// dlogits is TrainBatch's loss gradient, training state like the
	// layers' workspace (see workspace.go).
	dlogits buffer
}

// NewClassifier wraps net.
func NewClassifier(name string, net Layer, numClasses int) *Classifier {
	return &Classifier{Name: name, Net: net, NumClasses: numClasses}
}

// Logits runs the forward pass.
func (c *Classifier) Logits(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.Net.Forward(x, train)
}

// TrainBatch runs forward + backward on one batch and returns the loss.
// Gradients are accumulated into the parameters; callers step the optimizer.
// Every tensor the step makes lives in the classifier's training workspace
// (see workspace.go), so from the second step on it allocates nothing.
func (c *Classifier) TrainBatch(x *tensor.Tensor, labels []int) float64 {
	loss, _ := c.trainBatch(x, labels)
	return loss
}

// trainBatch is TrainBatch, also returning the gradient of the loss with
// respect to x (the network's, overwritten by the next training step).
func (c *Classifier) trainBatch(x *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	logits := c.Net.Forward(x, true)
	dlogits := c.dlogits.take(logits.Shape...)
	loss := softmaxCrossEntropy(logits, labels, dlogits)
	return loss, c.Net.Backward(dlogits)
}

// Params returns all parameters of the underlying network.
func (c *Classifier) Params() []*Param { return c.Net.Params() }

// PrunableParams returns the parameters eligible for CRISP pruning.
func (c *Classifier) PrunableParams() []*Param {
	var out []*Param
	for _, p := range c.Params() {
		if p.Prunable {
			out = append(out, p)
		}
	}
	return out
}

// Predict returns the argmax class of every sample in the batch.
func (c *Classifier) Predict(x *tensor.Tensor) []int {
	return ArgmaxRows(c.Logits(x, false), c.NumClasses)
}

// ArgmaxRows returns the per-row argmax of a [N, width] logit tensor
// (tensors of higher rank are treated as flattened rows of the given width).
func ArgmaxRows(logits *tensor.Tensor, width int) []int {
	n := logits.Len() / width
	out := make([]int, n)
	for b := 0; b < n; b++ {
		row := logits.Data[b*width : (b+1)*width]
		best, bi := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, bi = v, j+1
			}
		}
		out[b] = bi
	}
	return out
}

// Accuracy returns top-1 accuracy with argmax over all classes.
func (c *Classifier) Accuracy(x *tensor.Tensor, labels []int) float64 {
	pred := c.Predict(x)
	correct := 0
	for b, p := range pred {
		if p == labels[b] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

// GlobalSparsity returns the fraction of zeros over all prunable weights
// under the current masks.
func (c *Classifier) GlobalSparsity() float64 {
	total, kept := 0, 0
	for _, p := range c.PrunableParams() {
		total += p.W.Len()
		if p.Mask == nil {
			kept += p.W.Len()
		} else {
			kept += p.Mask.CountNonZero()
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(kept)/float64(total)
}

// CloneWeightsTo copies weights, masks and batch-norm running statistics
// from c into dst, which must have an architecturally identical network.
// It is used to snapshot a pre-trained model before destructive pruning.
func (c *Classifier) CloneWeightsTo(dst *Classifier) {
	src := c.Params()
	dp := dst.Params()
	if len(src) != len(dp) {
		panic("nn: CloneWeightsTo across different architectures")
	}
	for i, p := range src {
		copy(dp[i].W.Data, p.W.Data)
		if p.Mask != nil {
			dp[i].EnsureMask()
			copy(dp[i].Mask.Data, p.Mask.Data)
		} else {
			dp[i].ClearMask()
		}
	}
	copyBN(c.Net, dst.Net)
}

// copyBN recursively copies batch-norm running stats between mirrored trees.
func copyBN(src, dst Layer) {
	switch s := src.(type) {
	case *Sequential:
		d := dst.(*Sequential)
		for i := range s.Layers {
			copyBN(s.Layers[i], d.Layers[i])
		}
	case *Residual:
		d := dst.(*Residual)
		copyBN(s.Main, d.Main)
		if s.Shortcut != nil {
			copyBN(s.Shortcut, d.Shortcut)
		}
	case *BatchNorm2D:
		d := dst.(*BatchNorm2D)
		copy(d.RunMean.Data, s.RunMean.Data)
		copy(d.RunVar.Data, s.RunVar.Data)
	}
}
