package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// deltaPair returns a universal base and a diverged tenant: cloned weights,
// a pruning mask on the last prunable layer, fine-tuned kept weights and
// perturbed BN statistics — every kind of delta entry at once.
func deltaPair(t *testing.T, f models.Family) (base, tenant *nn.Classifier) {
	t.Helper()
	base = trainedModel(t, f, 20)
	tenant = models.Build(f, rand.New(rand.NewSource(77)), 6, 1)
	base.CloneWeightsTo(tenant)
	// Mask a layer and perturb its kept weights (a kept entry); leave other
	// params untouched (dense entries equal to the base's).
	pp := tenant.PrunableParams()
	p := pp[len(pp)-1]
	m := p.EnsureMask()
	for i := 0; i < m.Len(); i += 2 {
		m.Data[i] = 0
	}
	for i, mv := range m.Data {
		if mv != 0 {
			p.W.Data[i] += 0.125
		}
	}
	// Perturb one unmasked param densely and one BN stat.
	for _, q := range tenant.Params() {
		if q.Mask == nil {
			for i := range q.W.Data {
				q.W.Data[i] += 0.0625
			}
			break
		}
	}
	nn.Walk(tenant.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			bn.RunMean.Data[0] += 0.25
		}
	})
	return base, tenant
}

// TestModelDeltaRoundTrip: applying a delta to a fresh clone must reproduce
// the tenant's observable behaviour exactly — identical logits, identical
// masks — across families.
func TestModelDeltaRoundTrip(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		base, tenant := deltaPair(t, f)
		delta, err := EncodeModelDelta(base, tenant)
		if err != nil {
			t.Fatalf("%s: encode: %v", f, err)
		}
		dst := models.Build(f, rand.New(rand.NewSource(88)), 6, 1)
		if err := ApplyModelDelta(delta, base, dst); err != nil {
			t.Fatalf("%s: apply: %v", f, err)
		}
		x := tensor.Randn(rand.New(rand.NewSource(21)), 1, 2, 3, 8, 8)
		if !tensor.Equal(tenant.Logits(x, false), dst.Logits(x, false), 0) {
			t.Fatalf("%s: rebuilt tenant disagrees with original", f)
		}
		// Masks and effective weights must match exactly (the engine
		// compiles from these); raw pruned-position weights may legally
		// revert to base.
		tp, dp := tenant.Params(), dst.Params()
		for i, p := range tp {
			d := dp[i]
			if (p.Mask == nil) != (d.Mask == nil) {
				t.Fatalf("%s: %s mask presence diverged", f, p.Name)
			}
			if !tensor.Equal(p.Effective(), d.Effective(), 0) {
				t.Fatalf("%s: %s effective weights diverged", f, p.Name)
			}
		}
	}
}

// TestModelDeltaSizeScalesWithMask: a sparsely-masked fine-tuned tenant's
// delta must store only kept values — far smaller than a full weight copy.
func TestModelDeltaSizeScalesWithMask(t *testing.T) {
	base := trainedModel(t, models.ResNet, 30)
	tenant := models.Build(models.ResNet, rand.New(rand.NewSource(31)), 6, 1)
	base.CloneWeightsTo(tenant)
	var full int64
	// Mask every prunable param to 25% kept and perturb every kept weight,
	// the worst case for the kept-value mode.
	for _, p := range tenant.PrunableParams() {
		m := p.EnsureMask()
		for i := range m.Data {
			if i%4 != 0 {
				m.Data[i] = 0
			}
		}
		for i, mv := range m.Data {
			if mv != 0 {
				p.W.Data[i] += 0.5
			}
		}
	}
	for _, p := range tenant.Params() {
		full += int64(p.W.Len()) * 8
	}
	delta, err := EncodeModelDelta(base, tenant)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(delta)) >= full/2 {
		t.Fatalf("delta %d bytes vs %d full weights: kept-value entries not engaged", len(delta), full)
	}
}

// TestModelDeltaIsBaseIndependent: a delta depends on the tenant alone.
// Encoded over two unrelated models of its architecture — from the tenant
// classifier or from its Float32 engine — it is the same bytes, and it
// compiles from either base to the same values wherever a reader looks.
func TestModelDeltaIsBaseIndependent(t *testing.T) {
	for _, f := range allFamilies {
		a, b := randomModel(f, 70, false), randomModel(f, 71, true)
		tenant := randomTenant(f, 1, a, 72)
		for _, p := range tenant.PrunableParams() {
			if p.Mask == nil {
				randomMask(rand.New(rand.NewSource(73)), p)
			}
		}
		da, err := EncodeModelDelta(a, tenant)
		if err != nil {
			t.Fatal(err)
		}
		db, err := EncodeModelDelta(b, tenant)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(da, db) {
			t.Fatalf("%s: the delta over one base is %d bytes that differ from the %d over another", f, len(da), len(db))
		}
		eng, err := inference.New(tenant, 4, sparsity.NM{N: 2, M: 4})
		if err != nil {
			t.Fatal(err)
		}
		ea, err := EncodeEngineDelta(a, eng)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := EncodeEngineDelta(b, eng)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatalf("%s: the engine's delta depends on the base it is encoded over", f)
		}
		ra, rb := randomModel(f, 74, false), randomModel(f, 74, false)
		if err := ApplyModelDelta(da, a, ra); err != nil {
			t.Fatal(err)
		}
		if err := ApplyModelDelta(da, b, rb); err != nil {
			t.Fatal(err)
		}
		checkRebuilt(t, tenant, ra)
		checkRebuilt(t, tenant, rb)
		va, err := ViewModelDelta(da, a)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := ViewModelDelta(da, b)
		if err != nil {
			t.Fatal(err)
		}
		// A walk of the effective weights reads no base value: a pruned
		// position is not handed out at all.
		bp := b.Params()
		for i, p := range a.Params() {
			if !nonZeros(va, p).same(nonZeros(vb, bp[i])) {
				t.Fatalf("%s: %s: the view's effective weights depend on its base", f, p.Name)
			}
		}
		bn := normLayers(b)
		for i, l := range normLayers(a) {
			ma, sa := viewNormStats(va, l)
			mb, sb := viewNormStats(vb, bn[i])
			if !sameBits(ma, mb) || !sameBits(sa, sb) {
				t.Fatalf("%s: %s: the view's running statistics depend on its base", f, l.Gamma.Name)
			}
		}
	}
}

// TestModelDeltaRejectsGarbage: corrupt headers, truncation, and
// mask-inconsistent records must fail loudly, never partially apply.
func TestModelDeltaRejectsGarbage(t *testing.T) {
	base, tenant := deltaPair(t, models.ResNet)
	delta, err := EncodeModelDelta(base, tenant)
	if err != nil {
		t.Fatal(err)
	}
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(89)), 6, 1)
	if err := ApplyModelDelta([]byte("XXXX garbage"), base, dst); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := ApplyModelDelta(delta[:len(delta)/2], base, dst); err == nil {
		t.Fatal("truncated delta accepted")
	}
	other := models.Build(models.VGG, rand.New(rand.NewSource(90)), 6, 1)
	if err := ApplyModelDelta(delta, base, other); err == nil {
		t.Fatal("cross-architecture apply accepted")
	}
}

// TestEngineDeltaRejectsAnotherArchitecture: an engine walked against a base
// it was not compiled from fails — another family (parameter count), another
// width (shapes) — and so does an Int8 engine, which holds no float values.
func TestEngineDeltaRejectsAnotherArchitecture(t *testing.T) {
	base, tenant := deltaPair(t, models.ResNet)
	nm := sparsity.NM{N: 2, M: 4}
	for name, clf := range map[string]*nn.Classifier{
		"other family": models.Build(models.VGG, rand.New(rand.NewSource(91)), 6, 1),
		"other width":  models.Build(models.ResNet, rand.New(rand.NewSource(92)), 6, 2),
	} {
		eng, err := inference.New(clf, 4, nm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := EncodeEngineDelta(base, eng); err == nil {
			t.Errorf("%s: an engine of another architecture gave back a delta over base", name)
		}
	}
	q, err := inference.NewWithOptions(tenant, 4, nm, inference.CompileOptions{Precision: inference.Int8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeEngineDelta(base, q); err == nil {
		t.Error("an int8 engine gave back a delta")
	}
}
