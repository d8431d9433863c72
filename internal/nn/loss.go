package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// softmaxCrossEntropy computes the mean cross-entropy loss over a batch of
// logits [N, C] with integer labels, returning the loss and writing
// dL/dlogits into grad, which must have the logits' length; every element
// is written. The softmax is computed in a numerically stable way
// (max-shifted).
func softmaxCrossEntropy(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64 {
	if len(logits.Shape) != 2 {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy expects [N,C] logits, got %v", logits.Shape))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	if len(grad.Data) != n*c {
		panic(fmt.Sprintf("nn: loss gradient of %d elements for %v logits", len(grad.Data), logits.Shape))
	}
	loss := 0.0
	invN := 1.0 / float64(n)
	for b := 0; b < n; b++ {
		row := logits.Data[b*c : (b+1)*c]
		if labels[b] < 0 || labels[b] >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", labels[b], c))
		}
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - maxv)
		}
		logSum := math.Log(sum) + maxv
		loss += (logSum - row[labels[b]]) * invN
		g := grad.Data[b*c : (b+1)*c]
		for j, v := range row {
			g[j] = math.Exp(v-logSum) * invN
		}
		g[labels[b]] -= invN
	}
	return loss
}
