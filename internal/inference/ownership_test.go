package inference

import (
	"math"
	"runtime"
	"testing"
	"weak"

	"repro/internal/format"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// compileTenant prunes a fresh tenant of base and compiles it the way the
// serving layer does (shared slabs, dedup registry). It returns the engine,
// the tenant, and a weak pointer into the backing array of the tenant's
// largest weight tensor.
func compileTenant(t *testing.T, base *nn.Classifier, clone func() *nn.Classifier, prune func(*nn.Classifier, []int), prec Precision) (*Engine, *nn.Classifier, weak.Pointer[float64]) {
	t.Helper()
	tenant := clone()
	prune(tenant, []int{1, 5})
	eng, err := NewWithOptions(tenant, 4, sparsity.NM{N: 2, M: 4}, compileOpts(base, format.NewRegistry(), prec))
	if err != nil {
		t.Fatal(err)
	}
	var largest *nn.Param
	for _, p := range tenant.Params() {
		if largest == nil || p.W.Len() > largest.W.Len() {
			largest = p
		}
	}
	return eng, tenant, weak.Make(&largest.W.Data[0])
}

// TestEngineOutlivesItsClassifier holds the ownership rule: after compile
// the engine reads nothing of the tenant classifier. Overwriting every
// weight, mask, gradient and norm statistic of the tenant with NaN leaves the
// logits bit-identical at batch 1 and 16, and once the tenant is dropped its
// largest weight tensor is collected while the engine is still live.
func TestEngineOutlivesItsClassifier(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		base, clone, x, prune := sharedEnv(t, f)
		x16 := tensor.Concat([]*tensor.Tensor{x, x})
		x1 := tensor.FromSlice(x.Data[:x.Len()/x.Shape[0]], 1, x.Shape[1], x.Shape[2], x.Shape[3])
		if x16.Shape[0] != 16 {
			t.Fatalf("fixture batch is %d samples, want 16", x16.Shape[0])
		}
		for _, prec := range []Precision{Float32, Int8} {
			eng, tenant, _ := compileTenant(t, base, clone, prune, prec)
			want1, want16 := eng.Logits(x1), eng.Logits(x16)

			nan := math.NaN()
			for _, p := range tenant.Params() {
				for _, ts := range []*tensor.Tensor{p.W, p.Mask, p.Grad} {
					if ts != nil {
						ts.Fill(nan)
					}
				}
			}
			nn.Walk(tenant.Net, func(l nn.Layer) {
				if bn, ok := l.(*nn.BatchNorm2D); ok {
					bn.RunMean.Fill(nan)
					bn.RunVar.Fill(nan)
				}
			})
			for i, pair := range [][2]*tensor.Tensor{{want1, eng.Logits(x1)}, {want16, eng.Logits(x16)}} {
				for j, w := range pair[0].Data {
					if got := pair[1].Data[j]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s/%s: input %d logit %d changed when the classifier was overwritten: %v vs %v", f, prec, i, j, got, w)
					}
				}
			}
		}

		// GC half: nothing the engine holds keeps the tenant's weights alive.
		eng, _, weights := compileTenant(t, base, clone, prune, Float32)
		runtime.GC()
		runtime.GC()
		if weights.Value() != nil {
			t.Errorf("%s: the tenant's largest weight tensor survives a GC while only the engine is live", f)
		}
		runtime.KeepAlive(eng)
	}
}
