package inference

import (
	"math"
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

// sharedEnv builds a universal classifier, a tenant-cloning helper, and a
// test batch — the serving layer's compile setting in miniature.
func sharedEnv(t *testing.T, f models.Family) (base *nn.Classifier, clone func() *nn.Classifier, x *tensor.Tensor, prune func(*nn.Classifier, []int)) {
	t.Helper()
	cfg := data.Config{Name: "shared", NumClasses: 8, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 9}
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

// unsharedBytes sums by hand what every engine owns whatever Shared and
// Registry save it: a copy of each bias, norm scale/shift and running
// statistic its executors index, and — float engines — a tap table per conv
// layer (two int32 per plan column, five per kernel position).
func unsharedBytes(clf *nn.Classifier, eng *Engine) int64 {
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
			n += int64(m.plan.Cols)*8 + int64(c.geom.KH*c.geom.KW)*20
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

func compileOpts(base *nn.Classifier, reg *format.Registry, prec Precision) CompileOptions {
	return CompileOptions{Precision: prec, Shared: NewSharedWeights(base), Registry: reg}
}

// TestSharedCompileBitIdentical: compiling against shared universal slabs
// and a dedup registry must not change a single output bit, at either
// precision, for a fine-tuned (diverged) tenant.
func TestSharedCompileBitIdentical(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.MobileNet, models.Transformer} {
		base, clone, x, prune := sharedEnv(t, f)
		tenant := clone()
		prune(tenant, []int{1, 5})
		for _, prec := range []Precision{Float32, Int8} {
			ref, err := NewWithOptions(tenant, 4, sparsity.NM{N: 2, M: 4}, CompileOptions{Precision: prec})
			if err != nil {
				t.Fatalf("%s/%s: %v", f, prec, err)
			}
			shared, err := NewWithOptions(tenant, 4, sparsity.NM{N: 2, M: 4}, compileOpts(base, format.NewRegistry(), prec))
			if err != nil {
				t.Fatalf("%s/%s: %v", f, prec, err)
			}
			if !tensor.Equal(ref.Logits(x), shared.Logits(x), 0) {
				t.Fatalf("%s/%s: shared compile changed outputs", f, prec)
			}
			if prec == Int8 && ref.QuantSignature() != shared.QuantSignature() {
				t.Fatalf("%s: shared compile changed the quant signature", f)
			}
			if ref.Fingerprint() != shared.Fingerprint() {
				t.Fatalf("%s/%s: shared compile changed the structural fingerprint", f, prec)
			}
		}
	}
}

// TestSlabBindingShrinksFootprint: a tenant whose weights still equal the
// universal model (mask-only divergence or a pure clone) must bind its
// plans to the shared slabs and report a much smaller footprint than an
// owning engine — while staying bit-identical.
func TestSlabBindingShrinksFootprint(t *testing.T) {
	base, clone, x, _ := sharedEnv(t, models.ResNet)
	tenant := clone()
	owned, err := New(tenant, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewWithOptions(tenant, 4, sparsity.NM{N: 2, M: 4}, compileOpts(base, nil, Float32))
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(owned.Logits(x), shared.Logits(x), 0) {
		t.Fatal("slab-bound engine changed outputs")
	}
	// Binding drops exactly the value payloads (8 bytes per stored weight):
	// more than half of what the plans own, a third of the whole footprint
	// now that it also counts the conv tap tables.
	var vals int64
	for _, m := range resident(shared) {
		if !m.plan.Shared() {
			t.Fatal("undiverged tenant compiled an owned plan")
		}
		vals += int64(m.plan.NNZ()) * 8
	}
	if saved := owned.MemoryFootprint() - shared.MemoryFootprint(); saved != vals || saved < owned.MemoryFootprint()/3 {
		t.Fatalf("slab binding saved %d bytes, want the %d of value payload: shared %d vs owned %d bytes",
			saved, vals, shared.MemoryFootprint(), owned.MemoryFootprint())
	}
}

// TestRegistryDedupAcrossEngines: two tenants pruned identically compile
// identical plans — at Int8, identical images — and must share one instance
// through the registry, which then holds exactly what the first engine
// runs; releasing both drops every reference.
func TestRegistryDedupAcrossEngines(t *testing.T) {
	base, clone, x, prune := sharedEnv(t, models.ResNet)
	a, b := clone(), clone()
	prune(a, []int{1, 5})
	prune(b, []int{1, 5}) // deterministic: same classes → same plans
	for _, prec := range []Precision{Float32, Int8} {
		reg := format.NewRegistry()
		ea, err := NewWithOptions(a, 4, sparsity.NM{N: 2, M: 4}, compileOpts(base, reg, prec))
		if err != nil {
			t.Fatal(err)
		}
		eb, err := NewWithOptions(b, 4, sparsity.NM{N: 2, M: 4}, compileOpts(base, reg, prec))
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(ea.Logits(x), eb.Logits(x), 0) {
			t.Fatalf("%s: identically pruned tenants disagree", prec)
		}
		var held int64
		twin := resident(eb)
		for i, m := range resident(ea) {
			if other := twin[i]; m.plan != other.plan || m.quant != other.quant {
				t.Fatalf("%s: layer %d runs from two instances", prec, i)
			}
			held += m.bytes()
		}
		plans, refs, bytes := reg.Stats()
		if plans != ea.CompressedLayers || bytes != held {
			t.Fatalf("%s: registry holds %d entries / %d bytes, the engine runs %d layers from %d bytes", prec, plans, bytes, ea.CompressedLayers, held)
		}
		if refs != 2*plans {
			t.Fatalf("%s: refs %d, want %d (every plan shared by both engines)", prec, refs, 2*plans)
		}
		// The second engine owns no plan: every one deduped onto the first.
		if got, want := eb.MemoryFootprint(), unsharedBytes(b, eb); got != want {
			t.Fatalf("%s: deduped engine owns %d bytes, want only its tap tables and vector copies (%d)", prec, got, want)
		}
		ea.Release()
		ea.Release() // idempotent
		if _, refs, _ := reg.Stats(); refs != plans {
			t.Fatalf("%s: after one release refs = %d, want %d", prec, refs, plans)
		}
		eb.Release()
		if plans, _, _ := reg.Stats(); plans != 0 {
			t.Fatalf("%s: registry holds %d entries after all releases", prec, plans)
		}
		// Released engines still serve: plans remain valid objects.
		if !tensor.Equal(ea.Logits(x), eb.Logits(x), 0) {
			t.Fatalf("%s: released engines disagree", prec)
		}
	}
}

// TestFailedCompileReleasesItsReferences: an Int8 compile that fails on its
// last layer (a non-finite weight does not quantize) leaves nothing of the
// layers before it in the registry — there is no engine to Release.
func TestFailedCompileReleasesItsReferences(t *testing.T) {
	base, clone, _, prune := sharedEnv(t, models.ResNet)
	tenant := clone()
	prune(tenant, []int{1, 5})
	params := tenant.Params()
	params[len(params)-2].W.Data[0] = math.Inf(1) // the head's weight; its bias is last
	reg := format.NewRegistry()
	if _, err := NewWithOptions(tenant, 4, sparsity.NM{N: 2, M: 4}, compileOpts(base, reg, Int8)); err == nil {
		t.Fatal("a non-finite weight compiled at int8")
	}
	if plans, refs, bytes := reg.Stats(); plans != 0 || refs != 0 || bytes != 0 {
		t.Fatalf("a failed compile left %d entries, %d references, %d bytes in the registry", plans, refs, bytes)
	}
}

// TestMemoryFootprintManualSum checks the accounting helpers against
// by-hand sums of the compiled state (the satellite's unsafe.Sizeof-style
// cross-check).
func TestMemoryFootprintManualSum(t *testing.T) {
	// ResNet and the Transformer have no depthwise layers, so no
	// materialized effective contributes: the footprint is plans (attention's
	// Q/K/V/O among them — no dense D×D term) plus taps and vectors.
	for _, f := range []models.Family{models.ResNet, models.Transformer} {
		_, clone, _, prune := sharedEnv(t, f)
		tenant := clone()
		prune(tenant, []int{2, 6})
		for _, prec := range []Precision{Float32, Int8} {
			eng, err := NewWithOptions(tenant, 4, sparsity.NM{N: 2, M: 4}, CompileOptions{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			want := unsharedBytes(tenant, eng)
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
	_, cloneM, _, pruneM := sharedEnv(t, models.MobileNet)
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
	if got, rest := eng.MemoryFootprint(), unsharedBytes(tm, eng); got != plansOnly+eff+rest {
		t.Fatalf("MemoryFootprint %d, want plans %d + effectives %d + taps and vectors %d", got, plansOnly, eff, rest)
	}
}

// TestModelBytesManualSum checks ModelBytes against a direct walk.
func TestModelBytesManualSum(t *testing.T) {
	_, clone, _, prune := sharedEnv(t, models.ResNet)
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
