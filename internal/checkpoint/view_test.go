package checkpoint

import (
	"math"
	"math/rand"
	"slices"
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

// entries collects what a NonZerosInto walk hands its sink: the non-zeros
// of a W ⊙ Mask with their row-major indices.
type entries struct {
	idx []int
	val []float64
}

// Add implements format.EntrySink.
func (e *entries) Add(i int, v float64) {
	e.idx, e.val = append(e.idx, i), append(e.val, v)
}

// same reports whether e and o hold the same indices and bit-equal values.
func (e *entries) same(o *entries) bool {
	return slices.Equal(e.idx, o.idx) && sameBits(e.val, o.val)
}

// nonZeros is p's W ⊙ Mask as v walks it.
func nonZeros(v *DeltaView, p *nn.Param) *entries {
	e := &entries{}
	v.NonZerosInto(p, e)
	return e
}

// denseNonZeros is what a walk of the dense W ⊙ Mask w hands out: its
// non-zeros in index order.
func denseNonZeros(w []float64) *entries {
	e := &entries{}
	for i, v := range w {
		if v != 0 {
			e.Add(i, v)
		}
	}
	return e
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
// every parameter and norm layer of base, the non-zeros of the effective
// weights, the unmasked values and the running statistics bit-equal to the
// applied model's.
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
		if !nonZeros(v, p).same(denseNonZeros(ap[i].Effective().Data)) {
			t.Fatalf("%s: view's effective non-zeros differ from apply-then-Effective()", p.Name)
		}
		vals := make([]float64, p.W.Len())
		v.ValuesInto(p, vals)
		if !sameBits(vals, ap[i].W.Data) {
			t.Fatalf("%s: view's values differ from the applied weights", p.Name)
		}
	}
	an := normLayers(applied)
	for i, bn := range normLayers(base) {
		mean, variance := viewNormStats(v, bn)
		if !sameBits(mean, an[i].RunMean.Data) || !sameBits(variance, an[i].RunVar.Data) {
			t.Fatalf("%s: view's running statistics differ from the applied model's", bn.Gamma.Name)
		}
	}
}

// viewNormStats reads bn's running statistics out of v into fresh slices.
func viewNormStats(v *DeltaView, bn *nn.BatchNorm2D) (mean, variance []float64) {
	n := len(bn.RunMean.Data)
	mean, variance = make([]float64, n), make([]float64, n)
	v.NormStatsInto(bn, mean, variance)
	return mean, variance
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

// TestDeltaViewWritesOnlyDst: every read writes the caller's dst and nothing
// else — not a guard element on either side of it, not the base — and what
// it writes or walks out are values: scribbling over one read's dst or one
// walk's entries changes no later read, and overwriting the delta afterwards
// changes nothing already read.
func TestDeltaViewWritesOnlyDst(t *testing.T) {
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
	const guard = -12345.5
	// into reads through read into a guarded buffer of n values, checks the
	// guards, and returns the n values.
	into := func(name string, n int, read func(dst []float64)) []float64 {
		buf := make([]float64, n+2)
		for i := range buf {
			buf[i] = guard
		}
		read(buf[1 : n+1])
		if buf[0] != guard || buf[n+1] != guard {
			t.Fatalf("%s: a read wrote outside its dst", name)
		}
		return buf[1 : n+1]
	}
	var results [][]float64
	for _, p := range base.Params() {
		n := p.W.Len()
		eff := nonZeros(v, p)
		vals := into(p.Name, n, func(dst []float64) { v.ValuesInto(p, dst) })
		want, wantVals := &entries{idx: slices.Clone(eff.idx), val: slices.Clone(eff.val)}, append([]float64(nil), vals...)
		for i := range eff.val {
			eff.val[i] = math.NaN()
		}
		for i := range vals {
			vals[i] = math.NaN()
		}
		again := nonZeros(v, p)
		if !again.same(want) {
			t.Fatalf("%s: a second walk saw the first one's overwrite", p.Name)
		}
		againVals := into(p.Name, n, func(dst []float64) { v.ValuesInto(p, dst) })
		if !sameBits(againVals, wantVals) {
			t.Fatalf("%s: a second values read saw the first one's overwrite", p.Name)
		}
		results = append(results, again.val, againVals)
	}
	for _, bn := range normLayers(base) {
		n := len(bn.RunMean.Data)
		// mean and variance side by side, a guard between them.
		both := into(bn.Gamma.Name, 2*n+1, func(dst []float64) { v.NormStatsInto(bn, dst[:n], dst[n+1:]) })
		if both[n] != guard {
			t.Fatalf("%s: a norm-stat read wrote between its mean and its variance", bn.Gamma.Name)
		}
		results = append(results, both[:n], both[n+1:])
	}
	wantAll := make([][]float64, len(results))
	for i, r := range results {
		wantAll[i] = append([]float64(nil), r...)
	}
	for i := range delta {
		delta[i] = 0xA5
	}
	for i, r := range results {
		if !sameBits(r, wantAll[i]) {
			t.Fatal("a result changed when the delta bytes were overwritten")
		}
	}
	if string(saved(t, refSave, base)) != string(before) {
		t.Fatal("reading through the view wrote the base")
	}
}
