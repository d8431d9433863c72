package nn

import "repro/internal/tensor"

// TrainBatchInputGrad is TrainBatch also returning the input gradient, for
// the workspace tests outside the package.
func TrainBatchInputGrad(c *Classifier, x *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return c.trainBatch(x, labels)
}
