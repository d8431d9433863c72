package nn_test

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
)

// TestParamsListsTheTreeInOrder: a classifier's Params is every layer's own
// list, in execution order — the order every checkpoint record and delta
// is written in — and listing it costs only the one growing slice, not an
// object per layer.
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
		if n, bound := testing.AllocsPerRun(5, func() { clf.Params() }), float64(bits.Len(uint(len(got)))+1); !raceEnabled && n > bound {
			t.Errorf("%s: listing %d parameters allocates %v objects, want at most %v", f, len(got), n, bound)
		}
	}
}
