package nn_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
)

// TestParamsListsTheTreeInOrder: a classifier's Params is every layer's own
// list, in execution order — the order every checkpoint record and delta
// is written in — and listing it costs one slice of exactly that length,
// not an object per layer or a growing slice.
func TestParamsListsTheTreeInOrder(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		clf := models.Build(f, rand.New(rand.NewSource(1)), 6, 1)
		var want []*nn.Param
		nn.Walk(clf.Net, func(l nn.Layer) {
			switch l.(type) {
			case *nn.Sequential, *nn.Residual: // their children are walked
			default:
				want = append(want, l.Params()...)
			}
		})
		got := clf.Params()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Params lists %d parameters, the layers %d, or in another order", f, len(got), len(want))
		}
		if cap(got) != len(got) {
			t.Errorf("%s: Params lists %d parameters into a slice of capacity %d", f, len(got), cap(got))
		}
		if n := testing.AllocsPerRun(5, func() { clf.Params() }); !raceEnabled && n > 1 {
			t.Errorf("%s: listing %d parameters allocates %v objects, want at most 1", f, len(got), n)
		}
	}
}
