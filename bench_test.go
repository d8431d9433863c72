package crisp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
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

// BenchmarkFigures regenerates each of the paper's evaluation artifacts at
// quick scale, one sub-benchmark per exp.Figures entry (`go run
// ./cmd/crisp figures -fig <name>` prints the same table). One op is one
// regeneration on a fresh harness, pre-training included.
func BenchmarkFigures(b *testing.B) {
	for _, f := range exp.Figures() {
		b.Run(f.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := exp.NewHarness(exp.Config{Scale: exp.Quick, Seed: 1})
				if t := f.Run(h); len(t.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// Micro-benchmarks of the core kernels.

// BenchmarkGEMM measures the dense GEMM's three operand layouts: A·B on a
// conv-forward-sized problem, and the two a conv backward runs on one
// width-2 resnet-s layer at batch 16 (OutC=16, K=144, N·P=1024) —
// dW = dy·colsᵀ (A·Bᵀ) and dcols = Wᵀ·dy (Aᵀ·B). allocs/op is the number to
// read: all three shapes fan out over the worker pool, whose handoff is the
// only allocation a call makes.
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
	clf, x := benchPrunedFamily(b, models.ResNet)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.Logits(x, false)
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

// BenchmarkInference_Int8TransformerBatch16 serves a 16-sample batch through
// the int8 engine of the token-heavy family, where SpMM dominates the pass.
// The repository benchmark has no int8 transformer workload, so this is
// its only timing.
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
	// metadata decode amortizes only across a batch — exactly the workload
	// cross-request batching exists for.
	build := func() *nn.Classifier {
		return models.Build(models.Transformer, rand.New(rand.NewSource(33)), cfg.NumClasses, 2)
	}
	base := build()
	pruner.Pretrain(base, ds, 2, 8, 34)
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
// so their ns/op compare the deployed cost of precision directly.
func BenchmarkServePredict_Int8(b *testing.B) {
	b.ReportAllocs()
	benchServePredict(b, 16, inference.Int8)
}
