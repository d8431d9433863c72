package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestWorkspaceRecyclesNoValues: a recycled workspace buffer never leaks a
// value into a result. A classifier whose workspace a first step has dirtied
// trains on batches of 16, 8, 16 and 3 — shrinking, regrowing within its
// storage and shrinking again — beside a copy that is released before every
// step, so each of its buffers is freshly allocated. At every step the loss,
// every parameter's accumulated gradient and the input gradient match bit
// for bit, on every model family: a producer that accumulates into a buffer
// it did not clear, or a shape the re-slicing got wrong, shows here.
func TestWorkspaceRecyclesNoValues(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		t.Run(string(f), func(t *testing.T) {
			warm := models.Build(f, rand.New(rand.NewSource(1)), 10, 2)
			fresh := models.Build(f, rand.New(rand.NewSource(1)), 10, 2)
			rng := rand.New(rand.NewSource(2))
			batch := func(n int, std float64) (*tensor.Tensor, []int) {
				labels := make([]int, n)
				for i := range labels {
					labels[i] = rng.Intn(10)
				}
				return tensor.Randn(rng, std, n, 3, 8, 8), labels
			}
			// Dirty every buffer with activations of another scale.
			x, labels := batch(16, 7)
			warm.TrainBatch(x, labels)
			nn.ZeroGrad(warm.Params())

			for step, n := range []int{16, 8, 16, 3} {
				x, labels := batch(n, 1)
				fresh.ReleaseTrainingState()
				wantLoss, wantDx := nn.TrainBatchInputGrad(fresh, x, labels)
				gotLoss, gotDx := nn.TrainBatchInputGrad(warm, x, labels)
				if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
					t.Fatalf("step %d (batch %d): loss %v on the recycled workspace, %v on a fresh one", step, n, gotLoss, wantLoss)
				}
				if !sameBits(gotDx, wantDx) {
					t.Fatalf("step %d (batch %d): input gradient %v differs from a fresh workspace's %v", step, n, gotDx.Shape, wantDx.Shape)
				}
				wp, fp := warm.Params(), fresh.Params()
				for i := range wp {
					if !sameBits(wp[i].Grad, fp[i].Grad) {
						t.Fatalf("step %d (batch %d): %s gradient differs from a fresh workspace's", step, n, wp[i].Name)
					}
				}
			}
		})
	}
}

// sameBits reports whether a and b have one shape and bit-identical data.
func sameBits(a, b *tensor.Tensor) bool {
	if len(a.Shape) != len(b.Shape) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}
