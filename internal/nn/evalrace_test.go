package nn_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
)

// TestEvalForwardIsRaceFree: an eval-mode pass writes no layer field, so
// two goroutines may run one classifier's Logits(x, false) at once. Under
// -race a layer that records its input's geometry (or anything else) in an
// eval pass shows here as a data race; without it, both goroutines must
// still get the serial pass's logits bit for bit. It runs in -short mode.
func TestEvalForwardIsRaceFree(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		t.Run(string(f), func(t *testing.T) {
			clf := models.Build(f, rand.New(rand.NewSource(1)), 10, 1)
			x := tensor.Randn(rand.New(rand.NewSource(2)), 1, 4, 3, 8, 8)
			want := clf.Logits(x, false)
			var wg sync.WaitGroup
			got := make([]*tensor.Tensor, 2)
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = clf.Logits(x, false)
				}()
			}
			wg.Wait()
			for i, g := range got {
				if !tensor.Equal(g, want, 0) {
					t.Fatalf("goroutine %d: logits differ from the serial pass", i)
				}
			}
		})
	}
}
