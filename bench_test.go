package crisp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/format"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Figure/table benchmarks: each regenerates one of the paper's evaluation
// artifacts at quick scale (DESIGN.md §4 maps benchmarks to figures; see
// EXPERIMENTS.md for recorded outputs). They report one op per full
// regeneration.

func benchHarness() *exp.Harness {
	return exp.NewHarness(exp.Config{Scale: exp.Quick, Seed: 1})
}

// BenchmarkFig1_NMRatios regenerates Fig. 1 (accuracy at N:M ∈ {1,2,3}:4
// for the three model families).
func BenchmarkFig1_NMRatios(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.Figure1()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig2_LayerSparsity regenerates Fig. 2 (layer-wise sparsity
// distribution after global CRISP pruning).
func BenchmarkFig2_LayerSparsity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.Figure2()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig3_CRISPvsBlock regenerates Fig. 3 (CRISP vs block pruning
// across sparsity levels).
func BenchmarkFig3_CRISPvsBlock(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.Figure3()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig4_Metadata regenerates Fig. 4 right (metadata overhead of
// CSR/ELLPACK vs the CRISP format on full-size layers).
func BenchmarkFig4_Metadata(b *testing.B) {
	b.ReportAllocs()
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		rows, _ := h.Figure4()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig7_AccuracyVsClasses regenerates Fig. 7 (accuracy and FLOPs
// ratio vs the number of user classes, CRISP vs channel pruning vs dense).
func BenchmarkFig7_AccuracyVsClasses(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.Figure7()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig8_SpeedupEnergy regenerates Fig. 8 (layer-wise speedup and
// energy of CRISP-STC vs NVIDIA-STC, DSTC and dense on ResNet-50).
func BenchmarkFig8_SpeedupEnergy(b *testing.B) {
	b.ReportAllocs()
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		rows, _ := h.Figure8()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblation_Iterative regenerates ablation A (one-shot vs
// iterative pruning).
func BenchmarkAblation_Iterative(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.AblationIterative()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkAblation_Saliency regenerates ablation B (class-aware vs
// magnitude saliency).
func BenchmarkAblation_Saliency(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.AblationSaliency()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkAblation_Balance regenerates ablation C (balanced vs
// unconstrained block pruning with load-imbalance accounting).
func BenchmarkAblation_Balance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.AblationBalance()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkExt_Transformer regenerates the transformer extension experiment
// (the paper's future-work direction: CRISP on attention architectures).
func BenchmarkExt_Transformer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.ExtTransformer()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkExt_NetworkTable regenerates the end-to-end network latency and
// energy table (whole-network sums over the full-size shape tables).
func BenchmarkExt_NetworkTable(b *testing.B) {
	b.ReportAllocs()
	h := benchHarness()
	for i := 0; i < b.N; i++ {
		rows, _ := h.NetworkTable()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkMem_ModelSize regenerates the deployed-model-size table (the
// paper's memory-consumption claim, quantified per model family).
func BenchmarkMem_ModelSize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.MemoryTable()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// Micro-benchmarks of the core kernels.

// BenchmarkGEMM measures the dense GEMM's three operand layouts: A·B on a
// conv-forward-sized problem, and the two a conv backward runs on one
// width-2 resnet-s layer at batch 16 (OutC=16, K=144, N·P=1024) —
// dW = dy·colsᵀ (A·Bᵀ) and dcols = Wᵀ·dy (Aᵀ·B). allocs/op is the number to
// read: all three shapes fan out over the worker pool, whose handoff is the
// only allocation a call makes. ns/op is not gateable on shared CI hosts,
// so none of these has a BENCH_baseline.json entry.
func BenchmarkGEMM(b *testing.B) {
	for _, bc := range []struct {
		name           string
		transA, transB bool
		m, n, k        int
	}{
		{"AB", false, false, 128, 784, 576},
		{"ABt", false, true, 16, 144, 1024},
		{"AtB", true, false, 144, 1024, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			a := tensor.Randn(rng, 1, bc.m*bc.k)
			x := tensor.Randn(rng, 1, bc.k*bc.n)
			c := make([]float64, bc.m*bc.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Gemm(bc.transA, bc.transB, bc.m, bc.n, bc.k, 1, a.Data, x.Data, 0, c)
			}
		})
	}
}

// benchHybridMatrix builds a CRISP-invariant sparse matrix for the format
// and kernel benchmarks.
func benchHybridMatrix(rows, cols, blk int, nm sparsity.NM) *tensor.Tensor {
	rng := rand.New(rand.NewSource(2))
	scores := tensor.New(rows, cols)
	for i := range scores.Data {
		scores.Data[i] = math.Abs(rng.NormFloat64()) + 0.01
	}
	mask := tensor.New(rows, cols)
	sparsity.ApplyNM(mask, scores, nm)
	g := sparsity.NewBlockGrid(rows, cols, blk)
	rcs := sparsity.RankColumns(sparsity.BlockScores(tensor.Mul(scores, mask), g))
	for i := 0; i < g.GridCols()/2; i++ {
		sparsity.PruneRankColumn(mask, g, rcs[i])
	}
	w := tensor.Randn(rng, 1, rows, cols)
	w.MulInPlace(mask)
	return w
}

// BenchmarkSpMM_CRISPFormat measures the CRISP-format sparse kernel.
func BenchmarkSpMM_CRISPFormat(b *testing.B) {
	b.ReportAllocs()
	nm := sparsity.NM{N: 2, M: 4}
	w := benchHybridMatrix(128, 512, 16, nm)
	e, err := format.EncodeCRISP(w, 16, nm)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MatMul(x)
	}
}

// BenchmarkSpMM_CSR measures the CSR sparse kernel on the same matrix.
func BenchmarkSpMM_CSR(b *testing.B) {
	b.ReportAllocs()
	w := benchHybridMatrix(128, 512, 16, sparsity.NM{N: 2, M: 4})
	e := format.EncodeCSR(w)
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 512, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.MatMul(x)
	}
}

// benchPlanPair compiles the float and int8 plans of one memory-bound
// hybrid-sparse matrix plus a batch-16 activation block — the SpMM
// precision shoot-out fixture (512×4096 at ~10% density: the gather walks
// far more activation memory than fits in cache lines per row, so the
// kernels are bound by operand traffic, which is exactly where 8-bit
// operands pay).
func benchPlanPair(b *testing.B) (*format.Plan, *format.QuantPlan, *tensor.Tensor) {
	b.Helper()
	w := benchHybridMatrix(512, 4096, 16, sparsity.NM{N: 2, M: 4})
	p := format.EncodeCSR(w).Compile()
	q, err := p.Quantize()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 1, 4096, 16)
	return p, q, x
}

// BenchmarkSpMM_PlanFloatBatch16 is the float compiled-plan kernel on the
// batch-16 memory-bound shape — the reference the int8 kernel must meet.
// Output and scratch live outside the loop, so steady state is
// allocation-free up to the row-parallel fan-out.
func BenchmarkSpMM_PlanFloatBatch16(b *testing.B) {
	b.ReportAllocs()
	p, _, x := benchPlanPair(b)
	out := tensor.New(p.Rows, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MatMulInto(x, out)
	}
}

// BenchmarkSpMM_PlanInt8Batch16 is the quantized kernel on the same shape:
// per-column activation quantization + SWAR integer MAC + dequantizing
// store, with recycled scratch. The acceptance bar is ns/op at or below
// the float plan's.
func BenchmarkSpMM_PlanInt8Batch16(b *testing.B) {
	b.ReportAllocs()
	_, q, x := benchPlanPair(b)
	out := tensor.New(q.Rows, 16)
	s := q.Scratch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.MatMulInto(x, out, s)
	}
}

// BenchmarkSpMM_CRISPFastPath measures the CRISP-structure-specialized
// blocked kernel: the hybrid matrix compiles with a proved uniform span
// width, so the blocked path runs its fixed-trip-count microkernel loop
// (blockedTileUniform) with no per-row span bookkeeping, at the
// single-panel batch width where the blocked family wins outright.
func BenchmarkSpMM_CRISPFastPath(b *testing.B) {
	b.ReportAllocs()
	w := benchHybridMatrix(512, 512, 16, sparsity.NM{N: 2, M: 4})
	e, err := format.EncodeCRISP(w, 16, sparsity.NM{N: 2, M: 4})
	if err != nil {
		b.Fatal(err)
	}
	p := e.Compile()
	if p.UniformSpan() == 0 {
		b.Fatal("bench matrix did not compile to a uniform-span plan")
	}
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 1, 512, 8)
	out := tensor.New(p.Rows, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MatMulInto(x, out)
	}
}

// BenchmarkApplyNM measures N:M mask generation on a large layer.
func BenchmarkApplyNM(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(4))
	scores := tensor.Randn(rng, 1, 512, 4608)
	mask := tensor.New(512, 4608)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsity.ApplyNM(mask, scores, sparsity.NM{N: 2, M: 4})
	}
}

// BenchmarkRankColumns measures the rank-column aggregation (Algorithm 1
// lines 6–7) on a full-size layer grid.
func BenchmarkRankColumns(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	bs := tensor.Randn(rng, 1, 32, 72) // 2048×4608 at B=64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparsity.RankColumns(bs)
	}
}

// BenchmarkAccelSimulate measures the full four-architecture layer sweep.
func BenchmarkAccelSimulate(b *testing.B) {
	b.ReportAllocs()
	hw := accel.EdgeHW()
	e := energy.Default()
	archs := []accel.Arch{
		accel.NewDense(hw, e), accel.NewNvidiaSTC(hw, e),
		accel.NewDSTC(hw, e), accel.NewCRISPSTC(hw, e),
	}
	layers := models.ResNet50Shapes()
	sp := accel.Sparsity{NM: sparsity.NM{N: 2, M: 4}, KeptColFrac: 0.3, BlockSize: 64, ActDensity: 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range layers {
			for _, a := range archs {
				a.Simulate(l, sp)
			}
		}
	}
}

// BenchmarkInference_MaskedDense measures inference through masked dense
// GEMMs (the training-time representation).
func BenchmarkInference_MaskedDense(b *testing.B) {
	b.ReportAllocs()
	clf, x := benchPrunedModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Logits(x, false)
	}
}

// BenchmarkInference_SparseEngine measures inference through the CRISP
// storage format's SpMM kernels (the deployed representation).
func BenchmarkInference_SparseEngine(b *testing.B) {
	b.ReportAllocs()
	clf, x := benchPrunedModel(b)
	eng, err := inference.New(clf, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Logits(x)
	}
}

// benchSamples splits the bench batch into single-sample tensors.
func benchSamples(x *tensor.Tensor) []*tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	xs := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		xs[i] = tensor.FromSlice(x.Data[i*c*h*w:(i+1)*c*h*w], 1, c, h, w)
	}
	return xs
}

// BenchmarkInference_SparsePerSample16 serves a 16-sample workload one
// sample at a time: 16 sparse forward passes, 16 SpMMs per layer.
func BenchmarkInference_SparsePerSample16(b *testing.B) {
	b.ReportAllocs()
	clf, x := benchPrunedModel(b)
	eng, err := inference.New(clf, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		b.Fatal(err)
	}
	xs := benchSamples(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range xs {
			eng.Logits(s)
		}
	}
}

// BenchmarkInference_SparseBatch16 serves the same 16-sample workload as
// one batch: one sparse forward pass, one SpMM per layer (the serving
// layer's fast path; compare against SparsePerSample16 for the batching
// win, which must be ≥2× at batch 16).
func BenchmarkInference_SparseBatch16(b *testing.B) {
	b.ReportAllocs()
	clf, x := benchPrunedModel(b)
	eng, err := inference.New(clf, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		b.Fatal(err)
	}
	xs := benchSamples(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LogitsBatch(xs)
	}
}

// BenchmarkInference_TransformerPerSample16 is the per-sample loop on the
// transformer, where each sample offers the SpMM only a handful of token
// columns — the worst case for per-sample serving: the sparse metadata is
// decoded once per nonzero but amortized over almost nothing.
func BenchmarkInference_TransformerPerSample16(b *testing.B) {
	b.ReportAllocs()
	clf, x := benchPrunedFamily(b, models.Transformer)
	eng, err := inference.New(clf, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		b.Fatal(err)
	}
	xs := benchSamples(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range xs {
			eng.Logits(s)
		}
	}
}

// BenchmarkInference_TransformerBatch16 is the batched path on the same
// workload: 16× the activation columns per SpMM, so the metadata decode
// amortizes and batched inference beats the per-sample loop by ≥2× even on
// one core (conv families lower each sample to OH·OW columns via im2col,
// so their per-sample baseline is already partially batched; token/linear
// layers are where serving one sample at a time really pays).
func BenchmarkInference_TransformerBatch16(b *testing.B) {
	b.ReportAllocs()
	clf, x := benchPrunedFamily(b, models.Transformer)
	eng, err := inference.New(clf, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		b.Fatal(err)
	}
	xs := benchSamples(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LogitsBatch(xs)
	}
}

// BenchmarkInference_Int8Batch16 serves the 16-sample CNN workload through
// the int8 engine — the quantized twin of Inference_SparseBatch16 (same
// model, same batch): per-column activation quantization, SWAR integer
// MACs and dequantizing stores ride the engine arena, so allocs/op must
// stay at the float engine's level.
func BenchmarkInference_Int8Batch16(b *testing.B) {
	b.ReportAllocs()
	clf, x := benchPrunedModel(b)
	eng, err := inference.NewWithOptions(clf, 4, sparsity.NM{N: 2, M: 4}, inference.CompileOptions{Precision: inference.Int8})
	if err != nil {
		b.Fatal(err)
	}
	xs := benchSamples(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LogitsBatch(xs)
	}
}

// BenchmarkInference_Int8TransformerBatch16 is the quantized twin of
// Inference_TransformerBatch16 — the token-heavy family where SpMM
// dominates the pass.
func BenchmarkInference_Int8TransformerBatch16(b *testing.B) {
	b.ReportAllocs()
	clf, x := benchPrunedFamily(b, models.Transformer)
	eng, err := inference.NewWithOptions(clf, 4, sparsity.NM{N: 2, M: 4}, inference.CompileOptions{Precision: inference.Int8})
	if err != nil {
		b.Fatal(err)
	}
	xs := benchSamples(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LogitsBatch(xs)
	}
}

// benchPrunedModel builds a 90%-sparse classifier and an input batch.
func benchPrunedModel(b *testing.B) (*nn.Classifier, *tensor.Tensor) {
	return benchPrunedFamily(b, models.ResNet)
}

// benchPrunedFamily builds a 90%-sparse classifier of the family and a
// 16-sample input batch.
func benchPrunedFamily(b *testing.B, f models.Family) (*nn.Classifier, *tensor.Tensor) {
	b.Helper()
	cfg := data.Config{Name: "bench-inf", NumClasses: 8, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 9}
	ds := data.New(cfg)
	clf := models.Build(f, rand.New(rand.NewSource(51)), cfg.NumClasses, 2)
	p := pruner.NewCRISP(pruner.Options{
		Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
		Iterations: 2, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
	})
	p.Prune(clf, ds.MakeSplit("user", []int{1, 5}, 12))
	test := ds.MakeSplit("test", []int{1, 5}, 8)
	return clf, test.X
}

// BenchmarkAblation_Schedule regenerates ablation D (linear vs cubic κ_p
// schedule).
func BenchmarkAblation_Schedule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.AblationSchedule()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkAblation_MixedNM regenerates ablation E (CRISP's global ranking
// vs a per-layer N:M search).
func BenchmarkAblation_MixedNM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := benchHarness()
		rows, _ := h.AblationMixedNM()
		if len(rows) != 2 {
			b.Fatal("bad rows")
		}
	}
}

// --- Serving-layer benchmarks (the dynamic-batching hot path) ---

// serveBenchEnv shares one tiny dataset and pretrained universal model
// across the serving benchmarks; each benchmark builds its own Server so
// batching configurations never interfere.
type serveBenchEnv struct {
	ds    *data.Dataset
	build func() *nn.Classifier
	base  *nn.Classifier
}

var benchServeEnv = sync.OnceValue(func() *serveBenchEnv {
	cfg := data.Config{Name: "bench-serve", NumClasses: 8, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 31}
	ds := data.New(cfg)
	// The transformer is the family where per-sample serving hurts most:
	// each sample offers the SpMM only a handful of token columns, so the
	// metadata decode amortizes only across a batch (see the
	// Inference_Transformer* benchmarks) — exactly the workload
	// cross-request batching exists for.
	build := func() *nn.Classifier {
		return models.Build(models.Transformer, rand.New(rand.NewSource(33)), cfg.NumClasses, 2)
	}
	base := build()
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	opt := nn.NewSGD(0.05, 0.9, 4e-5)
	pruner.Finetune(base, ds.MakeSplit("pretrain", all, 8), 2, 16, opt, rand.New(rand.NewSource(34)))
	return &serveBenchEnv{ds: ds, build: build, base: base}
})

// benchServePredict drives 16 concurrent clients, each issuing b.N
// single-sample Predict calls against one personalization — the busy-tenant
// workload dynamic batching exists for. One benchmark op is one predict per
// client (16 predicts), so Concurrent vs Solo ns/op is directly the
// throughput ratio of batching on vs off.
func benchServePredict(b *testing.B, maxBatch int, precision inference.Precision) {
	env := benchServeEnv()
	s, err := serve.NewServer(env.build, env.base, env.ds, serve.Options{
		Prune: pruner.Options{
			Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
			Iterations: 1, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
		},
		TrainPerClass: 8,
		TestPerClass:  4,
		MaxBatch:      maxBatch,
		Linger:        time.Millisecond,
		MaxQueue:      1024,
		Precision:     precision,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	classes := []int{1, 5}
	if _, _, err := s.Personalize(classes); err != nil {
		b.Fatal(err)
	}
	const clients = 16
	split := env.ds.MakeSplit("bench-predict", classes, clients/2)
	xs := make([]*tensor.Tensor, clients)
	vol := env.ds.Channels * env.ds.H * env.ds.W
	for i := range xs {
		xs[i] = tensor.FromSlice(split.X.Data[i*vol:(i+1)*vol], 1, env.ds.Channels, env.ds.H, env.ds.W)
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := s.Predict(classes, xs[c]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// BenchmarkServePredict_Concurrent is the batched serving path: concurrent
// predicts coalesce into shared engine invocations (MaxBatch 16). The
// acceptance bar is ≥1.5× the throughput of ServePredict_Solo.
func BenchmarkServePredict_Concurrent(b *testing.B) {
	b.ReportAllocs()
	benchServePredict(b, 16, inference.Float32)
}

// BenchmarkServePredict_Solo is the same workload with batching disabled
// (MaxBatch 1): every request runs its own engine call — the pre-batching
// serving path, kept as the baseline for the coalescing win.
func BenchmarkServePredict_Solo(b *testing.B) {
	b.ReportAllocs()
	benchServePredict(b, 1, inference.Float32)
}

// BenchmarkServePredict_Int8 is the batched serving path on an Int8 server
// (quantized engines end to end): same 16-client workload as _Concurrent,
// so their ns/op compare the deployed cost of precision directly; the
// allocs/op gate holds the quantized predict path to the float path's
// steady state.
func BenchmarkServePredict_Int8(b *testing.B) {
	b.ReportAllocs()
	benchServePredict(b, 16, inference.Int8)
}

// --- Cluster-router benchmark (the proxy hot path) ---

// routerBench shares one three-shard cluster — real serve.Servers behind
// the real HTTP mux, fronted by the consistent-hash router — across
// benchmark repeats; rebuilding three servers per repeat would dwarf the
// path under measurement.
type routerBench struct {
	url    string
	body   []byte
	client *http.Client
	err    error
}

var benchRouterEnv = sync.OnceValue(func() *routerBench {
	env := benchServeEnv()
	rb := &routerBench{}
	rt := cluster.NewRouter(cluster.Options{ProbeInterval: time.Second})
	for i := 1; i <= 3; i++ {
		s, err := serve.NewServer(env.build, env.base, env.ds, serve.Options{
			Prune: pruner.Options{
				Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
				Iterations: 1, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
			},
			TrainPerClass: 8,
			TestPerClass:  4,
			MaxBatch:      16,
			Linger:        time.Millisecond,
			MaxQueue:      1024,
		})
		if err != nil {
			rb.err = err
			return rb
		}
		id := fmt.Sprintf("s%d", i)
		ts := httptest.NewServer(api.NewMux(s, env.ds, api.Config{ShardID: id}))
		rt.AddShard(id, ts.Listener.Addr().String())
	}
	rt.Start()
	front := httptest.NewServer(rt.Mux())
	rb.url = front.URL + "/predict"

	classes := []int{1, 5}
	pb, _ := json.Marshal(map[string]any{"classes": classes})
	resp, err := http.Post(front.URL+"/personalize", "application/json", bytes.NewReader(pb))
	if err != nil {
		rb.err = err
		return rb
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rb.err = fmt.Errorf("personalize via router: status %d", resp.StatusCode)
		return rb
	}
	vol := env.ds.Channels * env.ds.H * env.ds.W
	split := env.ds.MakeSplit("bench-router", classes, 1)
	rb.body, _ = json.Marshal(map[string]any{
		"classes": classes, "inputs": [][]float64{split.X.Data[:vol]},
	})
	// 16 clients reuse connections; the default two idle conns per host
	// would re-dial constantly and measure the TCP stack instead.
	rb.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	return rb
})

// BenchmarkRouterPredict_3Shards measures the cluster proxy hot path: 16
// concurrent clients issuing single-sample HTTP predicts through the
// consistent-hash router into a three-shard tier over real TCP. One op is
// one predict per client (mirroring ServePredict_Concurrent), so the ns/op
// delta against that benchmark is the router + HTTP serialization tax.
func BenchmarkRouterPredict_3Shards(b *testing.B) {
	b.ReportAllocs()
	rb := benchRouterEnv()
	if rb.err != nil {
		b.Fatal(rb.err)
	}
	const clients = 16
	b.ResetTimer()
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				resp, err := rb.client.Post(rb.url, "application/json", bytes.NewReader(rb.body))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("predict status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// --- Memory-density benchmark (the tiered-cache acceptance gate) ---

// tenantsDensity is the once-computed density measurement shared across
// benchmark repeats: the tenant fixture is deterministic, so re-personalizing
// per repeat would re-measure the same bytes at great cost.
type tenantsDensity struct {
	tenantsPerGB float64 // resident tenants per GB under the byte budget
	ratio        float64 // density vs the full-copy cache (acceptance: >= 3x)
	err          error
}

var benchDensity = sync.OnceValue(func() *tenantsDensity {
	env := benchServeEnv()
	opts := serve.Options{
		Prune: pruner.Options{
			Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
			Iterations: 1, FinetuneEpochs: 1, BatchSize: 16, LR: 0.01,
		},
		TrainPerClass: 8,
		TestPerClass:  4,
	}
	sets := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {0, 7}, {1, 6}}

	// Full-copy baseline: what a cache that keeps a model clone beside every
	// compiled engine would hold. Every pruned clone of one architecture
	// costs the same (dense W, Grad and Mask), so one is pruned here for its
	// size; the engines are the ones an unbudgeted server compiles.
	clone := env.build()
	env.base.CloneWeightsTo(clone)
	pruner.NewCRISP(opts.Prune).Prune(clone, env.ds.MakeSplit("bench-density", sets[0], opts.TrainPerClass))
	fullBytes := int64(len(sets)) * inference.ModelBytes(clone)

	hot, err := serve.NewServer(env.build, env.base, env.ds, opts)
	if err != nil {
		return &tenantsDensity{err: err}
	}
	defer hot.Close()
	for _, set := range sets {
		p, _, err := hot.Personalize(set)
		if err != nil {
			return &tenantsDensity{err: err}
		}
		fullBytes += p.Engine().MemoryFootprint()
	}

	// Tiered: hot tenants are an engine and a delta, not full copies, so the
	// budget is sized from what keeping them all hot costs — seven tenths of
	// it, three fifths of that for the hot tier: 2.52 hot tenants' worth holds
	// two hot, and the rest holds the other four as warm delta records while
	// a delta is under 0.55 of a hot tenant (0.42 on transformer-s since its
	// engine holds no dense attention projection; three fifths of the all-hot
	// bytes at the default split needed it under 0.4).
	opts.MemoryBudgetBytes = hot.Stats().HotBytes * 7 / 10
	opts.HotFraction = 0.6
	tiered, err := serve.NewServer(env.build, env.base, env.ds, opts)
	if err != nil {
		return &tenantsDensity{err: err}
	}
	defer tiered.Close()
	for _, set := range sets {
		if _, _, err := tiered.Personalize(set); err != nil {
			return &tenantsDensity{err: err}
		}
	}
	st := tiered.Stats()
	if st.CachedEngines+st.WarmEntries != len(sets) || st.Demotions == 0 {
		return &tenantsDensity{err: fmt.Errorf("%d of %d tenants resident (hot %d, warm %d) after %d demotions",
			st.CachedEngines+st.WarmEntries, len(sets), st.CachedEngines, st.WarmEntries, st.Demotions)}
	}
	resident := st.HotBytes + st.WarmBytes
	return &tenantsDensity{
		tenantsPerGB: float64(len(sets)) * float64(1<<30) / float64(resident),
		ratio:        float64(fullBytes) / float64(resident),
	}
})

// BenchmarkServeTenantsPerGB measures how many resident tenants one GB of
// tenant state holds under the tiered cache, and the density multiple over
// the full-copy engine cache at identical serving behavior (promotion is
// bit-identical). Both surface as custom benchmark metrics; benchcheck
// gates them as higher-is-better against BENCH_baseline.json, so a change
// that bloats warm records or stops demoting fails CI the same way a
// latency regression does.
func BenchmarkServeTenantsPerGB(b *testing.B) {
	var d *tenantsDensity
	for i := 0; i < b.N; i++ {
		d = benchDensity()
	}
	if d.err != nil {
		b.Fatal(d.err)
	}
	b.ReportMetric(d.tenantsPerGB, "tenants/GB")
	b.ReportMetric(d.ratio, "densityX")
}
