package inference

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/format"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// tenantEnv builds a universal classifier, a tenant-cloning helper, and a
// test batch — the serving layer's compile setting in miniature.
func tenantEnv(t *testing.T, f models.Family) (base *nn.Classifier, clone func() *nn.Classifier, x *tensor.Tensor, prune func(*nn.Classifier, []int)) {
	t.Helper()
	cfg := data.Config{Name: "tenant", NumClasses: 8, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 9}
	ds := data.New(cfg)
	base = models.Build(f, rand.New(rand.NewSource(31)), cfg.NumClasses, 1)
	pruner.Finetune(base, ds.MakeSplit("pre", []int{0, 1, 2, 3, 4, 5, 6, 7}, 6), 1, 16, nn.NewSGD(0.05, 0.9, 4e-5), rand.New(rand.NewSource(32)))
	clone = func() *nn.Classifier {
		c := models.Build(f, rand.New(rand.NewSource(31)), cfg.NumClasses, 1)
		base.CloneWeightsTo(c)
		return c
	}
	prune = func(c *nn.Classifier, classes []int) {
		p := pruner.NewCRISP(pruner.Options{
			Target: 0.7, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
			Iterations: 1, FinetuneEpochs: 1, BatchSize: 8, LR: 0.01,
		})
		p.Prune(c, ds.MakeSplit("user", classes, 6))
	}
	x = ds.MakeSplit("test", []int{1, 5}, 4).X
	return base, clone, x, prune
}

// tapAndVectorBytes sums by hand what an engine owns beside its plans and
// depthwise kernels: a copy of each bias, norm scale/shift and running
// statistic its executors index, and — float engines — a clip table per
// conv layer (five int32 per kernel position; a column's tap is computed,
// not stored).
func tapAndVectorBytes(clf *nn.Classifier, eng *Engine) int64 {
	var n int64
	vec := func(ps ...*nn.Param) {
		for _, p := range ps {
			if p != nil {
				n += int64(p.W.Len()) * 8
			}
		}
	}
	nn.Walk(clf.Net, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			vec(v.Bias)
		case *nn.DepthwiseConv2D:
			vec(v.Bias)
		case *nn.Linear:
			vec(v.Bias)
		case *nn.TokenLinear:
			vec(v.Bias)
		case *nn.PatchEmbed:
			vec(v.Bias)
		case *nn.LayerNorm:
			vec(v.Gamma, v.Beta)
		case *nn.BatchNorm2D:
			vec(v.Gamma, v.Beta)
			n += int64(len(v.RunMean.Data)+len(v.RunVar.Data)) * 8
		}
	})
	for _, m := range resident(eng) {
		if c, ok := m.owner.(*sparseConv); ok && c.cp != nil {
			n += int64(c.geom.KH*c.geom.KW) * 20
		}
	}
	return n
}

// held is one matrix an executor runs: a float plan or an int8 image.
type held struct {
	owner execLayer
	plan  *format.Plan
	quant *format.QuantPlan
}

func (h held) bytes() int64 {
	if h.plan != nil {
		return h.plan.SizeBytes()
	}
	return h.quant.SizeBytes()
}

// resident walks the executor tree for every plan and image reachable from
// the engine, in compile order — the engine itself keeps no list of them.
func resident(eng *Engine) []held {
	var out []held
	var walk func(l execLayer)
	mm := func(l execLayer, m spmm) { out = append(out, held{l, m.plan, m.qplan}) }
	walk = func(l execLayer) {
		switch v := l.(type) {
		case *execSeq:
			for _, c := range v.layers {
				walk(c)
			}
		case *execResidual:
			walk(v.main)
			if v.shortcut != nil {
				walk(v.shortcut)
			}
		case *sparseConv:
			mm(v, v.mm)
		case *sparseLinear:
			mm(v, v.mm)
		case *sparseTokenLinear:
			mm(v, v.mm)
		case *sparsePatchEmbed:
			mm(v, v.mm)
		case *execAttention:
			for _, p := range []*format.Plan{v.wq, v.wk, v.wv, v.wo} {
				out = append(out, held{owner: v, plan: p})
			}
		}
	}
	walk(eng.root)
	return out
}

// TestMemoryFootprintManualSum checks the accounting helpers against
// by-hand sums of the compiled state: plans or images, depthwise kernels,
// taps and vectors, and nothing else.
func TestMemoryFootprintManualSum(t *testing.T) {
	// ResNet and the Transformer have no depthwise layers, so no
	// materialized effective contributes: the footprint is plans (attention's
	// Q/K/V/O among them — no dense D×D term) plus taps and vectors.
	for _, f := range []models.Family{models.ResNet, models.Transformer} {
		_, clone, _, prune := tenantEnv(t, f)
		tenant := clone()
		prune(tenant, []int{2, 6})
		for _, prec := range []Precision{Float32, Int8} {
			eng, err := NewWithOptions(tenant, 4, sparsity.NM{N: 2, M: 4}, CompileOptions{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			want := tapAndVectorBytes(tenant, eng)
			for _, m := range resident(eng) {
				if m.plan != nil && m.quant != nil {
					t.Fatalf("%s/%s: %T holds a float plan beside its int8 image", f, prec, m.owner)
				}
				if _, attn := m.owner.(*execAttention); !attn && (m.quant != nil) != (prec == Int8) {
					t.Fatalf("%s/%s: %T runs at the wrong precision", f, prec, m.owner)
				}
				want += m.bytes()
			}
			if got := eng.MemoryFootprint(); got != want {
				t.Fatalf("%s/%s: MemoryFootprint %d, want manual sum %d", f, prec, got, want)
			}
		}
	}

	// MobileNet materializes depthwise effective weights on top of plans.
	_, cloneM, _, pruneM := tenantEnv(t, models.MobileNet)
	tm := cloneM()
	pruneM(tm, []int{2, 6})
	eng, err := New(tm, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var plansOnly int64
	for _, m := range resident(eng) {
		plansOnly += m.bytes()
	}
	var eff int64
	nn.Walk(tm.Net, func(l nn.Layer) {
		if dw, ok := l.(*nn.DepthwiseConv2D); ok {
			eff += int64(dw.Weight.W.Len()) * 8
		}
	})
	if eff == 0 {
		t.Fatal("MobileNet fixture has no depthwise layers")
	}
	if got, rest := eng.MemoryFootprint(), tapAndVectorBytes(tm, eng); got != plansOnly+eff+rest {
		t.Fatalf("MemoryFootprint %d, want plans %d + effectives %d + taps and vectors %d", got, plansOnly, eff, rest)
	}
}

// TestModelBytesManualSum checks ModelBytes against a direct walk.
func TestModelBytesManualSum(t *testing.T) {
	_, clone, _, prune := tenantEnv(t, models.ResNet)
	tenant := clone()
	prune(tenant, []int{1, 5})
	var want int64
	for _, p := range tenant.Params() {
		want += int64(p.W.Len()) * 8
		if p.Grad != nil {
			want += int64(p.Grad.Len()) * 8
		}
		if p.Mask != nil {
			want += int64(p.Mask.Len()) * 8
		}
	}
	nn.Walk(tenant.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			want += int64(len(bn.RunMean.Data)+len(bn.RunVar.Data)) * 8
		}
	})
	if got := ModelBytes(tenant); got != want || got == 0 {
		t.Fatalf("ModelBytes %d, want %d (non-zero)", got, want)
	}
}
