package nn_test

import (
	"math"
	"math/rand"
	"reflect"
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

// TestTrainingStateBytesIsWhatIsPinned: after a TrainBatch, TrainingStateBytes
// is the bytes of the distinct backing arrays the classifier holds that
// ReleaseTrainingState lets go — each array once, however many layers hold
// it (a layer that keeps its input for Backward holds its producer's output),
// and not the caller's batch. On every model family.
func TestTrainingStateBytesIsWhatIsPinned(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		rng := rand.New(rand.NewSource(3))
		clf := models.Build(f, rng, 10, 2)
		labels := make([]int, 8)
		for i := range labels {
			labels[i] = rng.Intn(10)
		}
		x := tensor.Randn(rng, 1, len(labels), 3, 8, 8)
		clf.TrainBatch(x, labels)
		held := arrays(clf)
		got := nn.TrainingStateBytes(clf)
		clf.ReleaseTrainingState()
		for end := range arrays(clf) {
			delete(held, end)
		}
		delete(held, arrayEnd(reflect.ValueOf(x.Data)))
		var want int64
		for _, n := range held {
			want += n
		}
		if got != want {
			t.Errorf("%s: TrainingStateBytes %d, the arrays released with the training state hold %d", f, got, want)
		}
	}
}

// arrays maps every array of numbers reachable from v to its bytes, keyed by
// its end address, which every slice reaching to the end of it shares.
func arrays(v any) map[uintptr]int64 {
	out := map[uintptr]int64{}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := range v.NumField() {
				if v.Type() != reflect.TypeFor[tensor.Tensor]() || v.Type().Field(i).Name != "Shape" { // a shape lives in its header's owner
					walk(v.Field(i))
				}
			}
		case reflect.Array:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Slice:
			switch v.Type().Elem().Kind() {
			case reflect.Float64, reflect.Bool, reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint8, reflect.Uint32, reflect.Uint64:
				if v.Cap() > 0 {
					end := arrayEnd(v)
					out[end] = max(out[end], int64(v.Cap())*int64(v.Type().Elem().Size()))
				}
			default:
				for i := range v.Len() {
					walk(v.Index(i))
				}
			}
		}
	}
	walk(reflect.ValueOf(v))
	return out
}

// arrayEnd is the address one past the last element s can reach.
func arrayEnd(s reflect.Value) uintptr {
	return s.Pointer() + uintptr(s.Cap())*s.Type().Elem().Size()
}
