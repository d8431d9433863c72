package inference

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/checkpoint"
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
		case *sparseRows:
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

// vectors walks the executor tree for every vector the engine's executors
// index: biases, γ, β, running statistics and depthwise kernels.
func vectors(l execLayer) (out [][]float64) {
	switch v := l.(type) {
	case *execSeq:
		for _, c := range v.layers {
			out = append(out, vectors(c)...)
		}
	case *execResidual:
		out = vectors(v.main)
		if v.shortcut != nil {
			out = append(out, vectors(v.shortcut)...)
		}
	case *sparseConv:
		out = [][]float64{v.bias}
	case *sparseRows:
		out = [][]float64{v.bias}
	case *execDepthwise:
		out = [][]float64{v.weff, v.bias}
	case *execBatchNorm:
		out = [][]float64{v.mean, v.variance, v.gamma, v.beta}
	case *execLayerNorm:
		out = [][]float64{v.gamma, v.beta}
	}
	return out
}

// TestEngineSlabsAreExact: an engine compiled from a delta view, the way
// every serving path compiles one, is carved from slabs sized to the
// element, on every family at both precisions. Every float plan slice and
// every vector it keeps has cap == len, so nothing it holds reaches into a
// neighbour's memory; MemoryFootprint is the hand sum of its plans' and
// images' SizeBytes, the float conv clip tables and 8 B per vector element
// of the tree (biases, γ, β, running statistics, depthwise kernels); and
// Fingerprint and QuantSignature are those of the tenant compiled from its
// own parameters. mobilenet-s, whose depthwise kernels and batch-norm
// statistics ride in the vector slab, is a family the serving layer's
// byte-accounting tests never compile.
func TestEngineSlabsAreExact(t *testing.T) {
	nm := sparsity.NM{N: 2, M: 4}
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		base, clone, _, prune := tenantEnv(t, f)
		tenant := clone()
		prune(tenant, []int{2, 6})
		delta, err := checkpoint.EncodeModelDelta(base, tenant)
		if err != nil {
			t.Fatal(err)
		}
		var kernels int64
		nn.Walk(tenant.Net, func(l nn.Layer) {
			if dw, ok := l.(*nn.DepthwiseConv2D); ok {
				kernels += int64(dw.Weight.W.Len()) * 8
			}
		})
		if (kernels > 0) != (f == models.MobileNet) {
			t.Fatalf("%s: fixture holds %d bytes of depthwise kernels", f, kernels)
		}
		for _, prec := range []Precision{Float32, Int8} {
			eng := engineFromDelta(t, base, delta, prec)
			own, err := NewWithOptions(tenant, 4, nm, CompileOptions{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Fingerprint() != own.Fingerprint() || eng.QuantSignature() != own.QuantSignature() {
				t.Fatalf("%s/%s: from the delta fp %016x qsig %016x, from the tenant %016x / %016x",
					f, prec, eng.Fingerprint(), eng.QuantSignature(), own.Fingerprint(), own.QuantSignature())
			}
			want := tapAndVectorBytes(tenant, eng) + kernels
			for _, m := range resident(eng) {
				want += m.bytes()
				if p := m.plan; p != nil && (cap(p.RowPtr) != len(p.RowPtr) || cap(p.Col) != len(p.Col) || cap(p.Val) != len(p.Val)) {
					t.Fatalf("%s/%s: a %T plan's slices have cap %d/%d/%d for len %d/%d/%d", f, prec, m.owner,
						cap(p.RowPtr), cap(p.Col), cap(p.Val), len(p.RowPtr), len(p.Col), len(p.Val))
				}
			}
			for _, v := range vectors(eng.root) {
				if cap(v) != len(v) {
					t.Fatalf("%s/%s: a vector has cap %d for len %d", f, prec, cap(v), len(v))
				}
			}
			if got := eng.MemoryFootprint(); got != want {
				t.Fatalf("%s/%s: MemoryFootprint %d, hand sum %d", f, prec, got, want)
			}
		}
	}
}

// rereadSource is OwnParams, except that every read of target after the
// first hands out one non-zero fewer, or with add one more: measure and
// compile then see different matrices.
type rereadSource struct {
	OwnParams
	target *nn.Param
	add    bool
	reads  int
}

func (s *rereadSource) NonZerosInto(p *nn.Param, dst format.EntrySink) {
	if p != s.target {
		s.OwnParams.NonZerosInto(p, dst)
		return
	}
	if s.reads++; s.reads == 1 {
		s.OwnParams.NonZerosInto(p, dst)
		return
	}
	s.OwnParams.NonZerosInto(p, &rereadSink{to: dst, add: s.add})
}

// rereadSink forwards a walk but for its first non-zero, which it drops, or
// with add for the first zero before a non-zero, which it hands on as a 1.
type rereadSink struct {
	to        format.EntrySink
	add, done bool
	next      int
}

func (w *rereadSink) Add(i int, v float64) {
	if !w.done {
		w.done = true
		if !w.add {
			return
		}
		if i > w.next {
			w.to.Add(w.next, 1)
		} else {
			w.done = false
		}
	}
	w.next = i + 1
	w.to.Add(i, v)
}

// TestCompileFailsWhenTheSlabsDisagree: the slabs are sized from one walk of
// the source and filled from another, so a source whose second walk of a
// matrix hands out one non-zero fewer or one more fails the compile — slab
// left over or short — and never yields an engine with a plan cut to the
// wrong size.
func TestCompileFailsWhenTheSlabsDisagree(t *testing.T) {
	_, clone, _, prune := tenantEnv(t, models.Transformer)
	tenant := clone()
	prune(tenant, []int{1, 5})
	for _, add := range []bool{false, true} {
		src := &rereadSource{target: tenant.PrunableParams()[0], add: add}
		_, err := NewFromSource(tenant, src, CompileOptions{})
		if err == nil || !strings.Contains(err.Error(), "left") {
			t.Fatalf("a second read with one non-zero more (%v) or fewer: compile returned %v, want the slabs' disagreement", add, err)
		}
		t.Log(err)
	}
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
