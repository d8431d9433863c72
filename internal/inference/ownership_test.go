package inference

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/checkpoint"
	"repro/internal/format"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// compileTenant prunes a fresh tenant and compiles it. It returns the engine
// and a weak pointer into the backing array of the tenant's largest weight
// tensor.
func compileTenant(t *testing.T, clone func() *nn.Classifier, prune func(*nn.Classifier, []int)) (*Engine, weak.Pointer[float64]) {
	t.Helper()
	tenant := clone()
	prune(tenant, []int{1, 5})
	eng, err := New(tenant, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var largest *nn.Param
	for _, p := range tenant.Params() {
		if largest == nil || p.W.Len() > largest.W.Len() {
			largest = p
		}
	}
	return eng, weak.Make(&largest.W.Data[0])
}

// poison overwrites every weight, mask, gradient and norm statistic of clf
// with NaN.
func poison(clf *nn.Classifier) {
	nan := math.NaN()
	for _, p := range clf.Params() {
		for _, ts := range []*tensor.Tensor{p.W, p.Mask, p.Grad} {
			if ts != nil {
				ts.Fill(nan)
			}
		}
	}
	nn.Walk(clf.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			bn.RunMean.Fill(nan)
			bn.RunVar.Fill(nan)
		}
	})
}

// standaloneSignatures recomputes what Fingerprint and QuantSignature must
// report for clf with no engine involved: each plan-backed parameter, in
// layer order, through EncodeCRISP (CSR where the engine falls back) →
// Compile → Quantize, hashed with hash/fnv, each image through
// QuantPlan.Hash (which format's TestHashesFoldTheCSRImage holds to hash/fnv
// over the bytes of the image's CSR form). The float plans an Int8 engine
// dropped at compile time still count toward its Fingerprint; attention's
// four count toward no QuantSignature.
func standaloneSignatures(t *testing.T, clf *nn.Classifier, prec Precision) (fp, qsig uint64) {
	t.Helper()
	fph, qh := fnv.New64a(), format.HashInit
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		fph.Write(buf[:])
	}
	add := func(quantized bool, ps ...*nn.Param) {
		for _, p := range ps {
			masked := tensor.Mul(p.MatrixView(), p.MaskMatrixView())
			plan := format.EncodeCSR(masked).Compile()
			if !p.BlockExempt && p.Prunable {
				if enc, err := format.EncodeCRISP(masked, 4, sparsity.NM{N: 2, M: 4}); err == nil {
					plan = enc.Compile()
				}
			}
			put(plan.Fingerprint())
			if !quantized || prec != Int8 {
				continue
			}
			q, err := plan.Quantize()
			if err != nil {
				t.Fatal(err)
			}
			qh = q.Hash(qh)
		}
	}
	nn.Walk(clf.Net, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			add(true, v.Weight)
		case *nn.Linear:
			add(true, v.Weight)
		case *nn.TokenLinear:
			add(true, v.Weight)
		case *nn.PatchEmbed:
			add(true, v.Weight)
		case *nn.MultiHeadAttention:
			add(false, v.Wq, v.Wk, v.Wv, v.Wo)
		}
	})
	if prec != Int8 {
		return fph.Sum64(), 0
	}
	return fph.Sum64(), uint64(qh)
}

// TestEngineOutlivesItsClassifier holds the ownership rule: after compile
// an engine reads nothing of the tenant classifier or of the universal model.
// For a fine-tuned tenant and an untouched one — whose every value is the
// base's bit for bit, so a plan that read its values out of the base rather
// than owning them would pass every other test — compiled from its own
// parameters and from a delta view over the base, overwriting every weight,
// mask, gradient and norm statistic of both classifiers with NaN leaves the
// logits bit-identical at batch 1 and 16. Once a tenant is dropped its
// largest weight tensor is collected while the engine is still live. What an
// engine keeps of the plans it compiled is two words: Fingerprint and
// QuantSignature, stored at compile time, equal what a standalone encode →
// compile → quantize of the same parameters hashes to, from either source.
func TestEngineOutlivesItsClassifier(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		base, clone, x, prune := tenantEnv(t, f)
		x1, x16 := batches(t, x)
		finetuned := clone()
		prune(finetuned, []int{1, 5})
		for _, prec := range []Precision{Float32, Int8} {
			for name, values := range map[string]*nn.Classifier{"fine-tuned": finetuned, "untouched": base} {
				// Private copies of the universal model and the tenant: both
				// are overwritten once the engines are compiled.
				universal, tenant := clone(), clone()
				values.CloneWeightsTo(tenant)
				own, err := NewWithOptions(tenant, 4, sparsity.NM{N: 2, M: 4}, CompileOptions{Precision: prec})
				if err != nil {
					t.Fatal(err)
				}
				delta, err := checkpoint.EncodeModelDelta(universal, tenant)
				if err != nil {
					t.Fatal(err)
				}
				engines := map[string]*Engine{"OwnParams": own, "DeltaView": engineFromDelta(t, universal, delta, prec)}
				fp, qsig := standaloneSignatures(t, tenant, prec)
				want := map[string][2]*tensor.Tensor{}
				for src, e := range engines {
					if e.Fingerprint() != fp || e.QuantSignature() != qsig {
						t.Fatalf("%s/%s/%s/%s: fingerprint %016x signature %016x, standalone plans hash to %016x / %016x",
							f, name, prec, src, e.Fingerprint(), e.QuantSignature(), fp, qsig)
					}
					want[src] = [2]*tensor.Tensor{e.Logits(x1), e.Logits(x16)}
				}

				poison(tenant)
				poison(universal)
				for src, e := range engines {
					if !sameLogits(e.Logits(x1), want[src][0]) || !sameLogits(e.Logits(x16), want[src][1]) {
						t.Fatalf("%s/%s/%s/%s: logits changed when the tenant and the universal model were overwritten", f, name, prec, src)
					}
				}
			}
		}

		// GC half: nothing the engine holds keeps the tenant's weights alive.
		eng, weights := compileTenant(t, clone, prune)
		runtime.GC()
		runtime.GC()
		if weights.Value() != nil {
			t.Errorf("%s: the tenant's largest weight tensor survives a GC while only the engine is live", f)
		}
		runtime.KeepAlive(eng)
	}
}

// batches cuts the fixture batch into the two shapes the equivalence tests
// run: one sample and sixteen.
func batches(t *testing.T, x *tensor.Tensor) (x1, x16 *tensor.Tensor) {
	t.Helper()
	x16 = tensor.ConcatInto([]*tensor.Tensor{x, x}, tensor.New(2*x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]))
	if x16.Shape[0] != 16 {
		t.Fatalf("fixture batch is %d samples, want 16", x16.Shape[0])
	}
	return tensor.FromSlice(x.Data[:x.Len()/x.Shape[0]], 1, x.Shape[1], x.Shape[2], x.Shape[3]), x16
}

func sameLogits(a, b *tensor.Tensor) bool {
	return slices.EqualFunc(a.Data, b.Data, func(v, w float64) bool { return math.Float64bits(v) == math.Float64bits(w) })
}

// engineFromDelta compiles a tenant the way the serving layer promotes one:
// a validated view over its delta as the source, the universal model as the
// layer tree.
func engineFromDelta(t *testing.T, base *nn.Classifier, delta []byte, prec Precision) *Engine {
	t.Helper()
	view, err := checkpoint.ViewModelDelta(delta, base)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewFromSource(base, view, CompileOptions{Precision: prec})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineFromDeltaMatchesEngineFromClone: compiling straight from (base,
// delta) yields the engine the clone path yields — build a classifier,
// ApplyModelDelta, NewWithOptions — on every family at both precisions:
// same Fingerprint, QuantSignature, MemoryFootprint and CompressedLayers,
// logits bit for bit at batch 1 and 16. Three tenants each: fine-tuned
// (kept values stored), mask-only (pruned, every kept value still the
// base's) and untouched (no masks: every value stored dense). The fine-tuned one is also held to the engine
// compiled from the pruned tenant itself, which shares no decoding with
// either path.
func TestEngineFromDeltaMatchesEngineFromClone(t *testing.T) {
	nm := sparsity.NM{N: 2, M: 4}
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		base, clone, x, prune := tenantEnv(t, f)
		x1, x16 := batches(t, x)
		finetuned := clone()
		prune(finetuned, []int{1, 5})
		maskOnly := clone()
		for i, p := range maskOnly.Params() {
			if m := finetuned.Params()[i].Mask; m != nil {
				p.Mask = m.Clone()
			}
		}
		for name, tenant := range map[string]*nn.Classifier{"fine-tuned": finetuned, "mask-only": maskOnly, "untouched": clone()} {
			delta, err := checkpoint.EncodeModelDelta(base, tenant)
			if err != nil {
				t.Fatal(err)
			}
			for _, prec := range []Precision{Float32, Int8} {
				rebuilt := models.Build(f, rand.New(rand.NewSource(77)), base.NumClasses, 1)
				if err := checkpoint.ApplyModelDelta(delta, base, rebuilt); err != nil {
					t.Fatal(err)
				}
				want, err := NewWithOptions(rebuilt, 4, nm, CompileOptions{Precision: prec})
				if err != nil {
					t.Fatal(err)
				}
				got := engineFromDelta(t, base, delta, prec)
				if got.Fingerprint() != want.Fingerprint() || got.QuantSignature() != want.QuantSignature() ||
					got.MemoryFootprint() != want.MemoryFootprint() || got.CompressedLayers != want.CompressedLayers {
					t.Fatalf("%s/%s/%s: from delta fp %016x qsig %016x footprint %d layers %d, from clone %016x %016x %d %d", f, name, prec,
						got.Fingerprint(), got.QuantSignature(), got.MemoryFootprint(), got.CompressedLayers,
						want.Fingerprint(), want.QuantSignature(), want.MemoryFootprint(), want.CompressedLayers)
				}
				if !sameLogits(got.Logits(x1), want.Logits(x1)) || !sameLogits(got.Logits(x16), want.Logits(x16)) {
					t.Fatalf("%s/%s/%s: logits from the delta differ from the clone path's", f, name, prec)
				}
				if name == "fine-tuned" {
					direct, err := NewWithOptions(tenant, 4, nm, CompileOptions{Precision: prec})
					if err != nil {
						t.Fatal(err)
					}
					if got.Fingerprint() != direct.Fingerprint() || got.QuantSignature() != direct.QuantSignature() || !sameLogits(got.Logits(x16), direct.Logits(x16)) {
						t.Fatalf("%s/%s: engine from the delta is not the engine compiled from the pruned tenant", f, prec)
					}
				}
			}
		}
	}
}

// baseBytes is every bit of base: each parameter's weights and mask, then
// each batch-norm running statistic, in a fixed order.
func baseBytes(base *nn.Classifier) []byte {
	var b []byte
	put := func(vs []float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	for _, p := range base.Params() {
		put(p.W.Data)
		if p.Mask != nil {
			b = append(b, 1)
			put(p.Mask.Data)
		} else {
			b = append(b, 0)
		}
	}
	nn.Walk(base.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			put(bn.RunMean.Data)
			put(bn.RunVar.Data)
		}
	})
	return b
}

// TestEngineFromDeltaOwnsWhatItReads: an engine compiled from (base, delta)
// keeps nothing of the delta and writes nothing of the base. Overwriting
// every delta byte leaves its logits bit-identical, the delta's backing
// array is collected while the engine is live, every weight, mask and norm
// statistic of the base is untouched, and two tenants' engines over one base
// serve concurrently (clean under -race).
func TestEngineFromDeltaOwnsWhatItReads(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		base, clone, x, prune := tenantEnv(t, f)
		x1, x16 := batches(t, x)
		before := baseBytes(base)
		for _, prec := range []Precision{Float32, Int8} {
			var engines [2]*Engine
			var want [2][2]*tensor.Tensor
			var deltas [2]weak.Pointer[byte]
			for i, classes := range [][]int{{1, 5}, {0, 2, 6}} {
				tenant := clone()
				prune(tenant, classes)
				delta, err := checkpoint.EncodeModelDelta(base, tenant)
				if err != nil {
					t.Fatal(err)
				}
				engines[i] = engineFromDelta(t, base, delta, prec)
				want[i] = [2]*tensor.Tensor{engines[i].Logits(x1), engines[i].Logits(x16)}
				for j := range delta {
					delta[j] = 0xA5
				}
				deltas[i] = weak.Make(&delta[0])
			}
			var wg sync.WaitGroup
			for i, eng := range engines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 4; rep++ {
						if !sameLogits(eng.Logits(x1), want[i][0]) || !sameLogits(eng.Logits(x16), want[i][1]) {
							t.Errorf("%s/%s: tenant %d's logits changed once its delta was overwritten and a neighbour served beside it", f, prec, i)
						}
					}
				}()
			}
			wg.Wait()
			runtime.GC()
			runtime.GC()
			for i, d := range deltas {
				if d.Value() != nil {
					t.Errorf("%s/%s: tenant %d's delta survives a GC while only its engine is live", f, prec, i)
				}
			}
			runtime.KeepAlive(engines)
		}
		if !bytes.Equal(baseBytes(base), before) {
			t.Errorf("%s: compiling from deltas wrote the base", f)
		}
	}
}

// TestEngineCountsNoActivations: activation statistics attached to a
// classifier's rectifiers before compile stay the classifier's. Concurrent
// passes of the engine, at either precision, move none of its counters — an
// engine keeps no pointer into the classifier it was compiled from, the
// statistics hook included, so the race pass sees no shared write either.
func TestEngineCountsNoActivations(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.MobileNet} {
		for _, prec := range []Precision{Float32, Int8} {
			clf := models.Build(f, rand.New(rand.NewSource(41)), 8, 1)
			stats := nn.CollectActivationStats(clf.Net)
			eng, err := NewWithOptions(clf, 4, sparsity.NM{N: 2, M: 4}, CompileOptions{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.Randn(rand.New(rand.NewSource(42)), 1, 4, 3, 8, 8)
			var wg sync.WaitGroup
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					eng.Predict(x)
				}()
			}
			wg.Wait()
			if *stats != (nn.ActStats{}) {
				t.Fatalf("%s/%s: engine passes moved the classifier's activation counters to %d / %d", f, prec, stats.NonZeros, stats.Total)
			}
		}
	}
}
