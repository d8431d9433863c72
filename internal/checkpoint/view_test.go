package checkpoint

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func normLayers(clf *nn.Classifier) (out []*nn.BatchNorm2D) {
	nn.Walk(clf.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			out = append(out, bn)
		}
	})
	return out
}

// checkView holds ViewModelDelta to ApplyModelDelta on one input. applyErr
// is what ApplyModelDelta(delta, base, applied) just returned: the view must
// reject exactly when apply did, and an accepted view must hand out, for
// every parameter and norm layer of base, effective weights, unmasked values
// and running statistics bit-equal to the applied model's.
func checkView(t testing.TB, delta []byte, base, applied *nn.Classifier, applyErr error) {
	t.Helper()
	v, err := ViewModelDelta(delta, base)
	if (err == nil) != (applyErr == nil) {
		t.Fatalf("view and apply disagree on a %d-byte delta: view %v, apply %v", len(delta), err, applyErr)
	}
	if err != nil {
		return
	}
	ap := applied.Params()
	for i, p := range base.Params() {
		eff := v.Effective(p)
		if len(eff.Shape) != 2 || eff.Shape[0] != p.Rows || eff.Shape[1] != p.Cols {
			t.Fatalf("%s: effective matrix is %v, want [%d %d]", p.Name, eff.Shape, p.Rows, p.Cols)
		}
		if !sameBits(eff.Data, ap[i].Effective().Data) {
			t.Fatalf("%s: view's effective weights differ from apply-then-Effective()", p.Name)
		}
		if !sameBits(v.Values(p), ap[i].W.Data) {
			t.Fatalf("%s: view's values differ from the applied weights", p.Name)
		}
	}
	an := normLayers(applied)
	for i, bn := range normLayers(base) {
		mean, variance := v.NormStats(bn)
		if !sameBits(mean, an[i].RunMean.Data) || !sameBits(variance, an[i].RunVar.Data) {
			t.Fatalf("%s: view's running statistics differ from the applied model's", bn.Gamma.Name)
		}
	}
}

// TestDeltaViewMatchesApply: on every family, for deltas that carry every
// kind of entry (kept, dense; norm statistics diverged and not) and for a
// pruned tenant that was never fine-tuned (every value the base's), the view
// hands out what apply-then-read yields.
func TestDeltaViewMatchesApply(t *testing.T) {
	for _, f := range allFamilies {
		base := randomModel(f, 51, false)
		unfinetuned := models.Build(f, rand.New(rand.NewSource(52)), 6, 1)
		base.CloneWeightsTo(unfinetuned)
		for _, p := range unfinetuned.PrunableParams() {
			randomMask(rand.New(rand.NewSource(53)), p)
		}
		for name, tenant := range map[string]*nn.Classifier{"diverged": randomTenant(f, 1, base, 54), "mask-only": unfinetuned} {
			delta, err := EncodeModelDelta(base, tenant)
			if err != nil {
				t.Fatal(err)
			}
			applied := models.Build(f, rand.New(rand.NewSource(55)), 6, 1)
			err = ApplyModelDelta(delta, base, applied)
			if err != nil {
				t.Fatalf("%s/%s: %v", f, name, err)
			}
			checkView(t, delta, base, applied, nil)
			// Bytes after the record are not the record's: apply stops at
			// the trailer, and so does the view.
			checkView(t, append(append([]byte(nil), delta...), "next record"...), base, applied, nil)
		}
	}
	resnet, vgg := randomModel(models.ResNet, 56, false), randomModel(models.VGG, 57, false)
	delta, err := EncodeModelDelta(resnet, randomTenant(models.ResNet, 1, resnet, 58))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ViewModelDelta(delta, vgg); err == nil {
		t.Fatal("a resnet delta viewed over a vgg base")
	}
}

// TestDeltaViewHandsOutFreshMemory: every read is a new allocation that
// aliases neither the delta, the base, nor an earlier read — scribbling over
// one result, and then over the delta itself, changes no other — and reading
// never writes the base.
func TestDeltaViewHandsOutFreshMemory(t *testing.T) {
	base := randomModel(models.ResNet, 61, false)
	delta, err := EncodeModelDelta(base, randomTenant(models.ResNet, 1, base, 62))
	if err != nil {
		t.Fatal(err)
	}
	before := saved(t, refSave, base)
	v, err := ViewModelDelta(delta, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range base.Params() {
		first, vals := v.Effective(p), v.Values(p)
		want := append([]float64(nil), first.Data...)
		wantVals := append([]float64(nil), vals...)
		first.Fill(math.NaN())
		if second := v.Effective(p); !sameBits(second.Data, want) {
			t.Fatalf("%s: a second read saw the first one's overwrite", p.Name)
		}
		if !sameBits(vals, wantVals) || !sameBits(v.Values(p), wantVals) {
			t.Fatalf("%s: values alias the effective matrix", p.Name)
		}
	}
	bn := normLayers(base)[0]
	mean, variance := v.NormStats(bn)
	wantMean, wantVar := append([]float64(nil), mean...), append([]float64(nil), variance...)
	kept := v.Effective(base.Params()[0])
	wantKept := append([]float64(nil), kept.Data...)
	for i := range delta {
		delta[i] = 0xA5
	}
	if !sameBits(mean, wantMean) || !sameBits(variance, wantVar) || !sameBits(kept.Data, wantKept) {
		t.Fatal("a result changed when the delta bytes were overwritten")
	}
	if string(saved(t, refSave, base)) != string(before) {
		t.Fatal("reading through the view wrote the base")
	}
}
