// Package inference executes a pruned classifier using compressed sparse
// weights: convolution and fully connected layers run their GEMMs through
// execution plans that hold only each matrix's kept non-zeros, instead of
// multiplying masked dense matrices. It is the software analogue of
// deploying the pruned model on CRISP-STC, and doubles as an end-to-end
// validation that the compressed representation computes exactly what the
// masked dense model computes.
//
// The hot path is built for serving:
//
//   - Every weight matrix is compiled once, at New time, into a flat
//     format.Plan gather-multiply-accumulate kernel: the image of its
//     W ⊙ Mask's non-zeros, each row cut into 256-column segments (a span
//     per row and segment precomputed, a one-byte column offset per
//     weight), built straight from the non-zeros its source hands out. A
//     CRISP-pruned matrix's plan is the one its CRISP encoding
//     (format.EncodeCRISP) compiles to — the slot walk emits each row's
//     non-zeros in ascending column order too —, so it runs
//     bit-identically to the slot-walking kernel without the encoding
//     being built. A matrix wider than format.MaxCols is a compile error.
//   - Every forward pass draws its scratch — im2col matrices, transposes,
//     SpMM outputs, bias fan-outs, batch concats, attention state — from an
//     engine-owned arena recycled through a sync.Pool and made at exactly
//     the size of a plan whose buffers share space by liveness, so a pass
//     allocates only its answer. See arena.go.
//   - Multi-head attention's four projections (Q, K, V, O) are plans like
//     every other matrix: the tokens are transposed once, the plans run over
//     the whole batch, and only the per-head softmax / A·V loop is dense.
//   - Linear, TokenLinear and PatchEmbed are one executor (sparseRows): a
//     plan over the rows of its input — the input's leading dimensions, or
//     the patches PatchEmbed extracts — and one transpose-and-bias epilogue.
//   - A layer's math that is not a plan has one implementation, nn's: each
//     executor calls the exported kernel nn's Forward calls in both modes
//     (nn.BatchNormEvalInto, nn.LayerNormInto, nn.AttentionInto,
//     nn.DepthwiseInto, nn.MaxPoolInto, nn.GlobalAvgPoolInto,
//     nn.MeanPoolTokensInto, nn.ConvOutInto, nn.Gelu, tensor.AddInto) with
//     its output drawn from the arena. What the engine adds is plans, so
//     the masked-dense equivalence is a test of the plans. The rectifier
//     alone keeps its own loop: branch-free, it maps −0 to +0, which nn's
//     training ReLU must not.
//
// The engine also has a deployment-precision mode
// (NewWithOptions(CompileOptions{Precision: Int8})): every plan-backed
// layer except attention (whose projections stay float at either precision)
// holds an int8 quantized plan instead of a float one — int8 weight codes
// at symmetric per-row scales — and the forward pass quantizes
// activations per column on the fly, accumulates int8×int8 products in
// 32-bit integer lanes (format.QuantPlan's SWAR kernel), and dequantizes
// once on store, mirroring sparse tensor cores in int8 mode. The float plan
// behind each int8 image is a compile-time transient: built into one scratch
// plan the next matrix rebuilds, fingerprinted, quantized. An engine keeps only
// what its forward pass reads, so an int8
// engine is the smaller one (3 bytes per kept weight against 10). The
// quantized path draws its codes and accumulators from the arena's word
// slab, so it is equally allocation-free; its
// outputs are approximate, with the accuracy cost
// bounded by the golden agreement suite in quant_test.go (top-1 agreement
// ≥95% vs the Float32 engine, per-family logit error bounds).
//
// The engine is inference-only and immutable after New: it snapshots the
// classifier's masked weights, layers run in evaluation mode, and no
// gradients exist. Concurrent Logits/Predict calls are safe — each pass
// owns its arena and the compiled state is read-only.
//
// An engine owns what it reads. compile walks a layer tree for structure and
// geometry only and takes every value from a ParamSource — the tree's own
// parameters (OwnParams: New, NewWithOptions) or a tenant's delta over that
// tree (checkpoint.DeltaView, every serving path) — into memory the compile
// provides. It runs twice: counting, on slabs that count what they would
// carve and hand back no memory, then building, on slabs made at exactly
// those counts — one []float64 for every vector, one format.PlanSlab for the
// float plans, one format.QuantSlab for the int8 images, one array per
// executor type —, so a compile allocates per tenant, not per layer. The
// source walks each matrix's non-zeros out once a run, with no dense
// W ⊙ Mask between. Once compiled,
// nothing reachable from the engine is the tree, a layer of it, the source
// or the bytes behind it: executors hold geometry, dimensions and ReLU caps
// by value, take no activation-statistics hook (an engine counts no
// activations), and a layer type without an executor is a compile error
// rather than a retained layer. The caller may
// drop or overwrite classifier and delta while the engine serves — and the
// universal model too: an engine aliases nothing, shares nothing with another
// engine, and owns every byte its MemoryFootprint charges. Walk runs compile
// in reverse: a Float32 engine hands back, read-only, every value it took
// from its source, which is enough to encode the tenant's delta again
// (checkpoint.EncodeEngineDelta), so a serving layer need not keep one.
package inference

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/format"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Precision selects the arithmetic the compiled sparse layers run at. It is
// named for the deployment dtype on the accelerator (CRISP-STC serves
// float or int8 operands), not for this reproduction's host arithmetic —
// the Float32 path computes in float64 like everything else here.
type Precision int

const (
	// Float32 is the full-precision reference path: compiled float plans,
	// bit-identical to the masked dense model.
	Float32 Precision = iota
	// Int8 runs the sparse conv/linear/token/patch layers from int8
	// quantized plans (attention projections stay float): int8 weight codes
	// at per-row scales,
	// activations quantized per column on the fly, int32 accumulation,
	// dequantize-on-store. Outputs are approximate; the golden agreement
	// suite bounds the top-1 disagreement against the Float32 engine.
	Int8
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	if p == Int8 {
		return "int8"
	}
	return "float32"
}

// CompileOptions tunes how NewWithOptions compiles a classifier into an
// engine. The zero value is the full-precision default.
type CompileOptions struct {
	// Precision selects float or int8 execution for the plan-backed layers.
	Precision Precision
}

// Engine is a compiled sparse-execution plan for one classifier. An engine
// is immutable after New and safe for concurrent Logits/PredictBatch calls.
// Each pass runs on an arena from the engine's pool, planned for the pass's
// input shape and made at exactly the plan's size (arena.go); what the pool
// parks is not in MemoryFootprint.
type Engine struct {
	numClasses int
	root       execLayer
	precision  Precision
	// fingerprint and quantSig are running hashes during compile and the
	// values Fingerprint and QuantSignature report after it.
	fingerprint, quantSig format.Hash64
	// footprint accumulates the engine-owned bytes at compile time (see
	// MemoryFootprint).
	footprint int64
	// CompressedLayers counts the layers running from sparse encodings; it
	// is fixed at compile time.
	CompressedLayers int
	// arenas recycles the engine's pass arenas; hdrs is how many tensor
	// headers one pass takes at most, the length of each arena's header slab.
	arenas sync.Pool
	hdrs   int
}

// New compiles clf's current masks into a sparse execution plan: every
// weight matrix becomes the format.Plan of its W ⊙ Mask, its non-zeros row
// by row in ascending column order. Compile reads neither blockSize nor nm —
// the plan of a CRISP-pruned matrix is the one its CRISP encoding compiles to
// — and they remain only so existing callers keep compiling.
func New(clf *nn.Classifier, blockSize int, nm sparsity.NM) (*Engine, error) {
	return NewWithOptions(clf, blockSize, nm, CompileOptions{})
}

// NewWithOptions is New with explicit compile options: with
// CompileOptions{Precision: Int8} every plan-backed layer but attention
// keeps its int8 quantized plan in place of the float one, and the forward
// pass runs the quantized kernels (per-column activation quantization,
// 32-bit integer accumulation, dequantize-on-store) with the packed
// quantization scratch drawn from the same engine-owned arena as the float
// buffers. Like New, it reads neither blockSize nor nm.
func NewWithOptions(clf *nn.Classifier, blockSize int, nm sparsity.NM, opts CompileOptions) (*Engine, error) {
	return NewFromSource(clf, OwnParams{}, opts)
}

// ParamSource is where compile reads a tenant's values. The nodes it is
// handed belong to the layer tree being compiled, and a dst slice holds
// exactly the node's values. Each call hands out values — never a view of
// the source's storage —, writes nothing but dst, and keeps no reference to
// dst.
type ParamSource interface {
	// NonZerosInto hands dst each non-zero of p's W ⊙ Mask with its
	// row-major index in [p.Rows, p.Cols], in ascending index order.
	NonZerosInto(p *nn.Param, dst format.EntrySink)
	// ValuesInto writes p's unmasked values (a bias, γ or β vector) into dst.
	ValuesInto(p *nn.Param, dst []float64)
	// NormStatsInto writes bn's running mean and variance into mean and
	// variance.
	NormStatsInto(bn *nn.BatchNorm2D, mean, variance []float64)
}

// OwnParams is the source of a classifier compiled from itself: each call
// copies out of the node it is handed.
type OwnParams struct{}

// NonZerosInto implements ParamSource.
func (OwnParams) NonZerosInto(p *nn.Param, dst format.EntrySink) {
	for i, w := range p.W.Data {
		if p.Mask != nil {
			w *= p.Mask.Data[i]
		}
		if w != 0 {
			dst.Add(i, w)
		}
	}
}

// ValuesInto implements ParamSource.
func (OwnParams) ValuesInto(p *nn.Param, dst []float64) { copy(dst, p.W.Data) }

// NormStatsInto implements ParamSource.
func (OwnParams) NormStatsInto(bn *nn.BatchNorm2D, mean, variance []float64) {
	copy(mean, bn.RunMean.Data)
	copy(variance, bn.RunVar.Data)
}

// NewFromSource compiles the tenant whose values src holds: tree supplies
// the architecture (the tenant's own classifier with OwnParams, the
// universal model with a delta view over it) and is not retained.
func NewFromSource(tree *nn.Classifier, src ParamSource, opts CompileOptions) (*Engine, error) {
	c := compiler{src: src}
	return c.engine(tree, opts.Precision)
}

// Precision reports the compiled execution precision.
func (e *Engine) Precision() Precision { return e.precision }

// QuantSignature returns a checksum over every quantized plan's layout,
// codes and scales, in compile order — 0 for Float32 engines. Two engines
// compiled from the same weights and masks at Int8 always agree: plan
// compilation and quantization are deterministic, which is what lets the
// serving layer re-quantize a restored snapshot and verify it reproduced
// the pre-restart codes exactly. Fixed at compile time.
func (e *Engine) QuantSignature() uint64 { return uint64(e.quantSig) }

// pass runs xs — xs[0], or every sample stacked into one batch — through
// the engine on an arena from its pool, planned for their shape, and hands
// use the output, which lives in the arena until use returns.
func (e *Engine) pass(xs []*tensor.Tensor, use func(y *tensor.Tensor)) {
	a, ok := e.arenas.Get().(*arena)
	if !ok {
		a = &arena{hdrs: make([]hdr, e.hdrs)}
	}
	a.prepare(e.root, xs)
	use(a.run(e.root, xs))
	a.finish()
	e.arenas.Put(a)
}

// Logits runs the sparse forward pass. The result is detached from the
// pass's arena (one small copy), so callers may hold it indefinitely.
func (e *Engine) Logits(x *tensor.Tensor) *tensor.Tensor {
	return e.LogitsBatch([]*tensor.Tensor{x})
}

// LogitsBatch stacks B sample tensors into one [B, ...] batch and runs a
// single sparse forward pass, so every compressed layer serves the whole
// batch with one SpMM instead of B SpMMs. Outputs are bit-identical to
// calling Logits per sample: each output element is the same dot product
// accumulated in the same order regardless of batch size.
func (e *Engine) LogitsBatch(xs []*tensor.Tensor) (out *tensor.Tensor) {
	e.pass(xs, func(y *tensor.Tensor) { out = y.Clone() })
	return out
}

// Predict returns the argmax class of every sample in the batch.
func (e *Engine) Predict(x *tensor.Tensor) []int {
	return e.PredictBatch([]*tensor.Tensor{x})
}

// PredictBatch concatenates the sample tensors inside the pass's arena,
// runs one forward pass, and returns the per-row argmax — the serving
// batcher's entry point: a whole coalesced batch costs the same steady-state
// allocations as a single sample (the returned class slice).
func (e *Engine) PredictBatch(xs []*tensor.Tensor) (preds []int) {
	e.pass(xs, func(y *tensor.Tensor) { preds = nn.ArgmaxRows(y, e.numClasses) })
	return preds
}

// concatArena is tensor.ConcatInto with the destination drawn as scratch.
// The destination header is composed in place (first tensor's shape with
// the lead dimension summed), so a batch concat costs zero allocations.
func concatArena(xs []*tensor.Tensor, a *arena) *tensor.Tensor {
	lead, vol := 0, 0
	for _, x := range xs {
		lead += x.Shape[0]
		vol += len(x.Data)
	}
	dst := a.header(xs[0].Shape)
	dst.Shape[0] = lead
	dst.Data = a.alloc(vol)
	return a.fill(dst, func() { tensor.ConcatInto(xs, dst) })
}

// execLayer is one node of the compiled forward pass, run through
// arena.call. forward draws its result with a.out and everything else as
// scratch, and returns that result or a view of it; while the arena is
// sizing it draws the same and runs no kernel. Callers that outlive the pass
// must copy.
type execLayer interface {
	forward(x *tensor.Tensor, a *arena) *tensor.Tensor
}

// compiler is one compile: the source it reads, the slabs the engine's
// vectors and plans are carved from, and the scratch plan an int8 image is
// quantized from. The engine keeps what was carved for it and nothing else;
// the scratch dies with the compile, and no slab serves two engines.
type compiler struct {
	e    *Engine
	src  ParamSource
	mode mode
	// scatter takes a depthwise kernel's non-zeros into its vector.
	scatter scatter
	// tmp holds the float plan an Int8 image is quantized from, rebuilt for
	// every matrix.
	tmp format.PlanSlab
	// plans, quants, vecs and execs back the engine: every float plan it
	// runs, every int8 image, every vector its executors index (biases, γ,
	// β, running statistics, depthwise kernels), and the executors
	// themselves.
	plans  format.PlanSlab
	quants format.QuantSlab
	vecs   slab[float64]
	execs  execSlabs
}

// mode is what one run of compile over the tree does.
type mode int

const (
	// counting: every slab counts what it would carve and hands back no
	// memory, and no value is copied out of the source. Each matrix is read
	// once, to count the entries of its plan (of the scratch plan, for an
	// int8 image).
	counting mode = iota
	// coding: only int8 images act, each built in the scratch plan and its
	// codes reserved in the image slab.
	coding
	// building: the slabs, made at exactly the counts, are carved and
	// filled, and the engine's fingerprints and footprint accumulate.
	building
)

// execSlabs back an engine's executors: one exactly sized array per executor
// type, and one for every execSeq's children, so a compile allocates per
// executor type, not per layer. Executors of no state (GELU, the pools
// without parameters, Flatten) are zero-sized and allocate nothing.
type execSlabs struct {
	seq       slab[execSeq]
	children  slab[execLayer]
	residual  slab[execResidual]
	conv      slab[sparseConv]
	rows      slab[sparseRows]
	attention slab[execAttention]
	depthwise slab[execDepthwise]
	batchNorm slab[execBatchNorm]
	relu      slab[execReLU]
	layerNorm slab[execLayerNorm]
	maxPool   slab[execMaxPool]
	// convPlans are the float convs' fused kernels (format.ConvPlan).
	convPlans slab[format.ConvPlan]
}

// slab is one element type's exactly sized array: the counting run counts
// n, and the building run carves it front to back, making it whole at the
// first carve.
type slab[T any] struct {
	n    int
	free []T
}

// take carves the next k elements while c builds, and hands back nil
// otherwise, counting them while c counts.
func (s *slab[T]) take(c *compiler, k int) []T {
	switch {
	case c.mode == counting:
		s.n += k
		return nil
	case c.mode == coding:
		return nil
	case s.free == nil:
		s.free = make([]T, s.n)
	}
	v := s.free[:k:k]
	s.free = s.free[k:]
	return v
}

// carve places v in the next element of s (nil unless c builds).
func carve[T any](c *compiler, s *slab[T], v T) *T {
	p := s.take(c, 1)
	if p == nil {
		return nil
	}
	p[0] = v
	return &p[0]
}

// engine compiles tree at prec, reading every value through c.src, by two
// runs of compile: counting, then building on slabs made at exactly the
// counts — and at Int8 a coding run between them, with the scratch plan made
// at the largest image's size. A source whose matrix reads differently in the
// building run than before makes a plan or image run short, an error, or
// leaves entries or codes over, which fails the compile too.
func (c *compiler) engine(tree *nn.Classifier, prec Precision) (*Engine, error) {
	c.e = &Engine{numClasses: tree.NumClasses, precision: prec, fingerprint: format.HashInit}
	if prec == Int8 {
		c.e.quantSig = format.HashInit // stays 0, the "no codes" signature, at Float32
	}
	if _, err := c.run(counting, tree.Net); err != nil {
		return nil, err
	}
	c.plans, c.tmp = format.NewPlanSlab(c.plans.Left()), format.NewPlanSlab(c.tmp.Left())
	if prec == Int8 {
		if _, err := c.run(coding, tree.Net); err != nil {
			return nil, err
		}
	}
	root, err := c.run(building, tree.Net)
	if err != nil {
		return nil, err
	}
	_, _, nnz := c.plans.Left()
	if _, _, codes := c.quants.Left(); nnz+codes != 0 {
		return nil, fmt.Errorf("inference: the source read differently when building than when counting: %d entries and %d codes left over", nnz, codes)
	}
	c.e.root = root
	return c.e, nil
}

// run is one run of compile over root in mode m.
func (c *compiler) run(m mode, root nn.Layer) (execLayer, error) {
	c.mode, c.e.hdrs = m, 1 // and a stacked batch
	return c.compile(root)
}

// compile mirrors the layer tree, swapping weight-bearing layers for
// plan-backed executors and eval-mode layers for arena-backed ones, with
// every value read through c.src into memory carved from c's slabs, the
// executors too, and counts the headers each executor draws in a pass at
// most (one, its result, unless its forward says more). Only the building
// run's result is an engine. A layer type it does not know is an error:
// there is no executor that could run it without retaining it.
func (c *compiler) compile(l nn.Layer) (execLayer, error) {
	c.e.hdrs++
	switch v := l.(type) {
	case *nn.Sequential:
		if len(v.Layers) == 0 {
			return nil, fmt.Errorf("inference: an empty %T has no result of its own to draw", v)
		}
		c.e.hdrs-- // its result is its last child's
		layers := c.execs.children.take(c, len(v.Layers))
		out := carve(c, &c.execs.seq, execSeq{layers: layers})
		for i, child := range v.Layers {
			cl, err := c.compile(child)
			if err != nil {
				return nil, err
			}
			if layers != nil {
				layers[i] = cl
			}
		}
		return out, nil
	case *nn.Residual:
		main, err := c.compile(v.Main)
		if err != nil {
			return nil, err
		}
		var short execLayer
		if v.Shortcut != nil {
			short, err = c.compile(v.Shortcut)
			if err != nil {
				return nil, err
			}
		}
		return carve(c, &c.execs.residual, execResidual{main: main, shortcut: short}), nil
	case *nn.Conv2D:
		c.e.hdrs += convHdrs
		mm, err := c.newSpMM(v.Weight)
		if err != nil {
			return nil, err
		}
		sc := carve(c, &c.execs.conv, sparseConv{geom: v.Geom, outC: v.OutC, bias: c.own(v.Bias), mm: mm})
		if c.e.precision == Float32 {
			// Float engines run conv through the fused implicit-im2col
			// kernel (see format.CompileConv).
			if cp := c.execs.convPlans.take(c, 1); cp != nil {
				sc.cp = mm.plan.CompileConv(&cp[0], v.Geom.KH, v.Geom.KW, v.Geom.Stride, v.Geom.Pad)
				c.e.footprint += sc.cp.SizeBytes()
			}
		}
		return sc, nil
	case *nn.Linear, *nn.TokenLinear, *nn.PatchEmbed:
		c.e.hdrs += rowsHdrs
		w, bias, patch := rowLayer(v)
		mm, err := c.newSpMM(w)
		if err != nil {
			return nil, err
		}
		return carve(c, &c.execs.rows, sparseRows{in: w.Cols, out: w.Rows, patch: patch, bias: c.own(bias), mm: mm}), nil
	case *nn.MultiHeadAttention:
		c.e.hdrs += attentionHdrs
		// Float plans at either precision: taking attention to int8 is an
		// accuracy question the golden agreement suite has not been asked.
		var w [4]*format.Plan
		for i, p := range [...]*nn.Param{v.Wq, v.Wk, v.Wv, v.Wo} {
			var err error
			if w[i], err = c.newPlan(p); err != nil {
				return nil, err
			}
		}
		return carve(c, &c.execs.attention, execAttention{d: v.D, heads: v.Heads, wq: w[0], wk: w[1], wv: w[2], wo: w[3]}), nil
	case *nn.DepthwiseConv2D:
		// A kernel is a vector, W ⊙ Mask byte for byte: each zero of it is
		// W·0 — signed as nn's eval forward signs it —, each non-zero the
		// source's.
		if c.scatter = c.own(v.Weight); c.scatter != nil {
			for i := range c.scatter {
				c.scatter[i] *= 0
			}
			c.src.NonZerosInto(v.Weight, &c.scatter)
		}
		return carve(c, &c.execs.depthwise, execDepthwise{geom: v.Geom, bias: c.own(v.Bias), weff: c.scatter}), nil
	case *nn.BatchNorm2D:
		n := len(v.RunMean.Data)
		mean, variance := c.vector(n), c.vector(n)
		if mean != nil {
			c.src.NormStatsInto(v, mean, variance)
		}
		return carve(c, &c.execs.batchNorm, execBatchNorm{
			eps: v.Eps, mean: mean, variance: variance,
			gamma: c.own(v.Gamma), beta: c.own(v.Beta),
		}), nil
	case *nn.ReLU:
		return carve(c, &c.execs.relu, execReLU{clip: v.Cap}), nil
	case *nn.GELU:
		return execGELU{}, nil
	case *nn.LayerNorm:
		return carve(c, &c.execs.layerNorm, execLayerNorm{eps: v.Eps, gamma: c.own(v.Gamma), beta: c.own(v.Beta)}), nil
	case *nn.MaxPool2D:
		return carve(c, &c.execs.maxPool, execMaxPool{k: v.K, stride: v.Stride}), nil
	case *nn.GlobalAvgPool:
		return &execGlobalAvgPool{}, nil
	case *nn.MeanPoolTokens:
		return &execMeanPool{}, nil
	case *nn.Flatten:
		return &execFlatten{}, nil
	default:
		return nil, fmt.Errorf("inference: no executor for layer type %T", l)
	}
}

// rowLayer returns the weight and bias of a layer sparseRows runs, and its
// patch size (0 unless it is a PatchEmbed).
func rowLayer(l nn.Layer) (w, bias *nn.Param, patch int) {
	switch v := l.(type) {
	case *nn.Linear:
		return v.Weight, v.Bias, 0
	case *nn.TokenLinear:
		return v.Weight, v.Bias, 0
	case *nn.PatchEmbed:
		return v.Weight, v.Bias, v.P
	}
	panic(fmt.Sprintf("inference: %T is not a row layer", l))
}

// scatter writes each entry it is handed into a dense vector.
type scatter []float64

// Add implements format.EntrySink.
func (s *scatter) Add(i int, v float64) { (*s)[i] = v }

// spmm is the executors' shared SpMM dispatch: a compiled float plan, or —
// in Int8 engines — the int8 image quantized from it, never both.
// Executors are precision-agnostic: they compose shapes and biases and call
// into; which kernel runs is the plan's own per-call decision.
type spmm struct {
	plan  *format.Plan      // nil in Int8 engines
	qplan *format.QuantPlan // nil in Float32 engines
}

// into computes W·B into out ([Rows, n]). The quantized path draws its
// activation-code (int8), column-scale (float) and accumulator (int32)
// scratch from the pass's arena, so it stays allocation-free in steady
// state just like the float path.
func (s *spmm) into(b, out *tensor.Tensor, a *arena) *tensor.Tensor {
	if s.qplan == nil {
		return a.fill(out, func() { s.plan.MatMulInto(b, out) })
	}
	n := out.Shape[1]
	halfW := (n + 1) / 2
	sc := format.QuantScratch{
		Packed:   a.allocU64(s.qplan.Cols * halfW),
		ColScale: a.alloc(n),
		ColInv:   a.alloc(n),
		AccP:     a.allocU64(s.qplan.Rows * halfW),
		AccN:     a.allocU64(s.qplan.Rows * halfW),
	}
	return a.fill(out, func() { s.qplan.MatMulInto(b, out, sc) })
}

// newSpMM compiles one weight-bearing layer's SpMM dispatch at the engine's
// precision. An Int8 engine keeps the image, carved from the engine's image
// slab, and not the float plan it was quantized from: that plan is built in
// the compile's scratch, which the next matrix rebuilds, since no forward
// path reads it. The coding run counts the image's codes in the same scratch.
func (c *compiler) newSpMM(p *nn.Param) (spmm, error) {
	if c.e.precision != Int8 {
		plan, err := c.newPlan(p)
		return spmm{plan: plan}, err
	}
	c.tmp.Rewind()
	plan, err := c.build(p, &c.tmp)
	if plan == nil || err != nil {
		return spmm{}, err
	}
	if c.mode == coding {
		codes, err := plan.QuantCodes()
		c.quants.Reserve(p.Rows, p.Cols, codes)
		return spmm{}, err
	}
	q, err := plan.QuantizeIn(&c.quants)
	if err != nil {
		return spmm{}, err
	}
	c.e.quantSig = q.Hash(c.e.quantSig)
	c.e.footprint += q.SizeBytes()
	return spmm{qplan: q}, nil
}

// newPlan builds a float-executed matrix's plan in the engine's plan slab
// and charges it to the footprint; the coding run reads no float matrix.
func (c *compiler) newPlan(p *nn.Param) (*format.Plan, error) {
	if c.mode == coding {
		return nil, nil
	}
	plan, err := c.build(p, &c.plans)
	if plan != nil {
		c.e.footprint += plan.SizeBytes()
	}
	return plan, err
}

// build is how every matrix becomes a plan, at either precision: the next
// plan of s, filled with the non-zeros of p's W ⊙ Mask the source hands it.
// The plan keeps exactly those, each row's in ascending column order, which
// is the order the CRISP and CSR storage kernels accumulate a row in. The
// building run folds it into the engine's fingerprint and counts the layer
// compressed. A matrix wider than format.MaxCols is an error naming it,
// raised by the counting run before the matrix is read.
func (c *compiler) build(p *nn.Param, s *format.PlanSlab) (*format.Plan, error) {
	if p.Cols > format.MaxCols {
		return nil, fmt.Errorf("inference: %s has %d columns, a plan holds at most %d", p.Name, p.Cols, format.MaxCols)
	}
	if err := s.Begin(p.Rows, p.Cols); err != nil {
		return nil, err
	}
	c.src.NonZerosInto(p, s)
	plan, err := s.End()
	if c.mode == building && err == nil {
		c.e.fingerprint = c.e.fingerprint.Uint64(plan.Fingerprint())
		c.e.CompressedLayers++
	}
	return plan, err
}

// vector carves the next n elements of the vector slab and charges them to
// the footprint (nil unless c builds).
func (c *compiler) vector(n int) []float64 {
	v := c.vecs.take(c, n)
	if v != nil {
		c.e.footprint += int64(n) * 8
	}
	return v
}

// own copies a parameter's values into the vector slab (nil for an absent
// parameter, e.g. a bias-free conv, and unless c builds).
func (c *compiler) own(p *nn.Param) []float64 {
	if p == nil {
		return nil
	}
	v := c.vector(p.W.Len())
	if v != nil {
		c.src.ValuesInto(p, v)
	}
	return v
}

// Visitor receives what Walk hands back: Param once per parameter, with the
// plan a matrix compiled to (its entries are the non-zeros of W ⊙ Mask, each
// row's in ascending column order) or the vector the engine holds verbatim
// (a depthwise kernel's W ⊙ Mask, a bias, γ or β); Norm once per batch norm,
// with its running mean and variance. It is an interface, not two callbacks,
// so a walk allocates at most the visitor.
type Visitor = interface {
	Param(plan *format.Plan, values []float64)
	Norm(mean, variance []float64)
}

// Walk hands a Float32 engine's values back to v — the reverse of compile,
// which took them from a ParamSource. It visits in compile order, which is the
// order of the layer tree's Params and of its batch norms. What it hands out
// is the engine's own memory: read it, never write it. An Int8 engine holds
// lossy images of its matrices, not their values, and walks nothing.
func (e *Engine) Walk(v Visitor) error {
	if e.precision != Float32 {
		return fmt.Errorf("inference: a %s engine holds no float values to walk", e.precision)
	}
	walk(e.root, v)
	return nil
}

func walk(l execLayer, v Visitor) {
	switch x := l.(type) {
	case *execSeq:
		for _, c := range x.layers {
			walk(c, v)
		}
	case *execResidual:
		walk(x.main, v)
		if x.shortcut != nil {
			walk(x.shortcut, v)
		}
	case *sparseConv:
		v.Param(x.mm.plan, nil)
		walkBias(x.bias, v)
	case *sparseRows:
		v.Param(x.mm.plan, nil)
		walkBias(x.bias, v)
	case *execAttention:
		for _, p := range [...]*format.Plan{x.wq, x.wk, x.wv, x.wo} {
			v.Param(p, nil)
		}
	case *execDepthwise:
		v.Param(nil, x.weff)
		walkBias(x.bias, v)
	case *execBatchNorm:
		v.Param(nil, x.gamma)
		v.Param(nil, x.beta)
		v.Norm(x.mean, x.variance)
	case *execLayerNorm:
		v.Param(nil, x.gamma)
		v.Param(nil, x.beta)
	}
}

// walkBias hands v a layer's bias; a bias-free layer has no parameter.
func walkBias(bias []float64, v Visitor) {
	if bias != nil {
		v.Param(nil, bias)
	}
}

// execSeq chains executors. Their results alternate between the arena's
// two sides, the last on the seq's own, and each child's input is freed once
// the next child has returned.
type execSeq struct {
	layers []execLayer
}

func (s *execSeq) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	held, side := a.used, a.side^(len(s.layers)-1)&1
	for _, l := range s.layers {
		x = a.call(l, x, side)
		a.pop(side^1, held[side^1]) // the child's input, unless it was the seq's own
		side ^= 1
	}
	return x
}

// execResidual is nn.Residual: main(x) + shortcut(x) (nil shortcut =
// identity) by tensor.AddInto. The main branch's result is the residual's
// scratch, live until the add; the sum goes into the shortcut's result in
// place, or into a result of its own at an identity shortcut.
type execResidual struct {
	main, shortcut execLayer
}

func (r *execResidual) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	m := a.call(r.main, x, a.side^1)
	if r.shortcut == nil {
		sum := a.out(m.Shape...)
		return a.fill(sum, func() { tensor.AddInto(sum, m, x) })
	}
	s := a.call(r.shortcut, x, a.side)
	return a.fill(s, func() { tensor.AddInto(s, m, s) })
}

// execGELU is eval-mode nn.GELU with the output drawn from the arena.
type execGELU struct{}

func (execGELU) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	y := a.out(x.Shape...)
	return a.fill(y, func() {
		for i, v := range x.Data {
			y.Data[i] = nn.Gelu(v)
		}
	})
}

// convBatchLastMin gates the batch-last implicit-im2col conv path: its two
// transposes and per-tap AXPY runs amortize over the batch width, and at
// n < 4 the runs are too short to beat the materialized-im2col lowering
// (at n=1 they are pure overhead — per-sample inference measures ~50%
// slower batch-last). Small batches fall through to the default case.
const convBatchLastMin = 4

// sparseConv runs Conv2D from a compiled weight plan. The im2col and int8
// paths re-lay their [S, N·P] output out with nn.ConvOutInto, nn's own conv
// epilogue, into an arena tensor; the batch-last path lands in [N, S·P]
// itself and adds the bias in place.
type sparseConv struct {
	geom tensor.ConvGeom // kernel shape; InH/InW come from each input
	outC int
	bias []float64 // nil for a bias-free conv
	mm   spmm
	cp   *format.ConvPlan // fused implicit-im2col kernel; nil in Int8 engines
}

// convHdrs is how many headers sparseConv.forward draws beside its result
// at most: on the batch-last path, two transposes and two views.
const convHdrs = 4

func (s *sparseConv) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	g := s.geom
	g.InH, g.InW = x.Shape[2], x.Shape[3]
	n := x.Shape[0]
	oh, ow := g.OutH(), g.OutW()
	var outMat *tensor.Tensor // [S, N*OH*OW]
	switch {
	case s.mm.qplan != nil && quantConvSupported(ow):
		// Int8: quantize-before-im2col (see quantconv.go) — one encode per
		// input element instead of one per im2col duplicate.
		outMat = quantConvForward(s.mm.qplan, x, g, n, oh, ow, a)
	case s.cp != nil && n >= convBatchLastMin:
		// Float: the implicit-im2col fast path gathers taps straight from
		// the input image, so the KH·KW×-amplified im2col matrix is never
		// materialized (see format/convplan.go for the accumulation-order
		// contract that keeps it bit-compatible with the lowering). The
		// kernel runs batch-last — transpose in, convolve with whole-batch
		// AXPY runs, transpose out — which lands the result directly in
		// the [batch, OutC·OH·OW] layout the next layer wants, so the
		// sample-major reassembly below is skipped entirely.
		chw := g.InC * g.InH * g.InW
		xT, outT, clips := a.tensor(chw, n), a.tensor(s.outC*oh*ow, n), a.alloc(s.cp.ClipFloats())
		y := a.out(n, s.outC, oh, ow)
		xv, yv := a.view(x.Data, n, chw), a.view(y.Data, n, s.outC*oh*ow)
		if a.sizing {
			return y
		}
		tensor.TransposeInto(s.cp.MatMulBatchLastInto(tensor.TransposeInto(xv, xT), g, n, outT, clips), yv)
		if s.bias != nil {
			p := oh * ow
			for b := 0; b < n; b++ {
				for oc := 0; oc < s.outC; oc++ {
					bias := s.bias[oc]
					dst := y.Data[(b*s.outC+oc)*p : (b*s.outC+oc+1)*p]
					for i := range dst {
						dst[i] += bias
					}
				}
			}
		}
		return y
	default:
		cols := a.tensor(g.InC*g.KH*g.KW, n*oh*ow)
		outMat = s.mm.into(a.fill(cols, func() { tensor.Im2ColInto(x, g, cols) }), a.tensor(s.outC, n*oh*ow), a)
	}
	y := a.out(n, s.outC, oh, ow)
	return a.fill(y, func() { nn.ConvOutInto(outMat.Data, s.bias, y.Data, n, s.outC, oh*ow) })
}

// sparseRows runs Linear, TokenLinear and PatchEmbed from a compiled weight
// plan: y = (W·xᵀ)ᵀ + b over the rows of its input — the rows of a Linear's
// [N, In] input, the N·T tokens of a TokenLinear's [N, T, In], or the N·T
// patches PatchEmbed extracts from an [N, C, H, W] image — so each output row
// is one input row multiplied by every weight row.
type sparseRows struct {
	in, out int
	patch   int // the patch size of a PatchEmbed, 0 otherwise
	bias    []float64
	mm      spmm
}

// rowsHdrs is how many headers sparseRows.forward draws beside its result at
// most: the rows, their transpose, the product and a view of the result.
const rowsHdrs = 4

func (s *sparseRows) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	// The output is [N, Out], or [N, T, Out] for tokens and patches.
	n, t := x.Shape[0], 1
	rows := x
	switch {
	case s.patch > 0:
		t = (x.Shape[2] / s.patch) * (x.Shape[3] / s.patch)
		rows = a.tensor(n*t, s.in)
		a.fill(rows, func() { nn.ExtractPatchesInto(x, rows, s.patch) })
	case len(x.Shape) == 3:
		t = x.Shape[1]
		rows = a.view(x.Data, n*t, s.in)
	}
	// SpMM computes W·B for B = rowsᵀ [In, N·T].
	xt := a.tensor(s.in, n*t)
	a.fill(xt, func() { tensor.TransposeInto(rows, xt) })
	out := s.mm.into(xt, a.tensor(s.out, n*t), a) // [Out, N·T]
	y := a.out(n*t, s.out)
	a.fill(y, func() {
		for j := 0; j < s.out; j++ {
			for r := 0; r < n*t; r++ {
				y.Data[r*s.out+j] = out.Data[j*n*t+r] + s.bias[j]
			}
		}
	})
	if rows == x {
		return y
	}
	return a.view(y.Data, n, t, s.out)
}

// execAttention runs multi-head self-attention with its four projections
// as compiled float plans; all intermediate state (transposes, Q, K, V,
// attention rows, head outputs) lives in the pass's arena. The per-head
// softmax and A·V are nn.AttentionInto, the kernel nn.MultiHeadAttention
// runs.
type execAttention struct {
	d, heads       int
	wq, wk, wv, wo *format.Plan
}

// attentionHdrs is how many headers execAttention.forward draws beside its
// result: five token matrices, a projection and a view each of input and
// result.
const attentionHdrs = 8

func (m *execAttention) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n, t := x.Shape[0], x.Shape[1]
	nt := n * t
	// Scratch: the tokens transposed ([D, N·T]; the heads' output
	// transposed once Q, K and V are made), one projection's product (all
	// four share it), Q, K, V, the heads' output z ([N·T, D]; cleared, since
	// nn.AttentionInto accumulates) and the scores.
	xT, prod := a.tensor(m.d, nt), a.tensor(m.d, nt)
	q, k, v, z := a.tensor(nt, m.d), a.tensor(nt, m.d), a.tensor(nt, m.d), a.tensor(nt, m.d)
	scores := a.alloc(n * m.heads * t * t)
	y := a.out(nt, m.d)
	xv, res := a.view(x.Data, nt, m.d), a.view(y.Data, n, t, m.d)
	if a.sizing {
		return res
	}
	// project computes tokens · Wᵀ for tokens handed over transposed and
	// writes it token-major into dst.
	project := func(srcT *tensor.Tensor, w *format.Plan, dst *tensor.Tensor) {
		tensor.TransposeInto(w.MatMulInto(srcT, prod), dst)
	}
	tensor.TransposeInto(xv, xT)
	project(xT, m.wq, q)
	project(xT, m.wk, k)
	project(xT, m.wv, v)
	clear(z.Data)
	nn.AttentionInto(q.Data, k.Data, v.Data, z.Data, scores, n, t, m.d, m.heads)
	project(tensor.TransposeInto(z, xT), m.wo, y)
	return res
}

// execDepthwise is nn.DepthwiseConv2D: nn.DepthwiseInto over the masked
// kernels materialized at compile time, with the output drawn from the
// arena.
type execDepthwise struct {
	geom tensor.ConvGeom
	bias []float64 // nil for a bias-free conv
	weff []float64 // [C, KH·KW]
}

func (d *execDepthwise) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	g := d.geom
	g.InH, g.InW = x.Shape[2], x.Shape[3]
	y := a.out(x.Shape[0], g.InC, g.OutH(), g.OutW())
	return a.fill(y, func() { nn.DepthwiseInto(x.Data, d.weff, d.bias, y.Data, g, x.Shape[0]) })
}

// execBatchNorm is the eval branch of nn.BatchNorm2D (running statistics):
// nn.BatchNormEvalInto with the output drawn from the arena.
type execBatchNorm struct {
	eps                         float64
	mean, variance, gamma, beta []float64
}

func (e *execBatchNorm) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	y := a.out(x.Shape...)
	return a.fill(y, func() {
		nn.BatchNormEvalInto(x.Data, y.Data, x.Shape[0], x.Shape[2]*x.Shape[3], e.mean, e.variance, e.gamma, e.beta, e.eps)
	})
}

// execReLU is the eval-mode rectifier (optionally clipped) with the output
// drawn from the arena. Cap is the layer's at compile time. An engine counts
// no activations: nn.ReLU.Stats is the nn model's hook, and copying it here
// would let every engine pass write the classifier's counters.
type execReLU struct {
	clip float64 // > 0 clips activations there (ReLU6)
}

func (e *execReLU) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	y := a.out(x.Shape...)
	if a.sizing {
		return y
	}
	if c := e.clip; c > 0 {
		for i, v := range x.Data {
			out := v
			if v < 0 {
				out = 0
			} else if v > c {
				out = c
			}
			y.Data[i] = out
		}
	} else {
		// Activation signs are near-random, so the naive `if v < 0` branch
		// mispredicts roughly every other element. Testing the sign on the
		// integer bit pattern instead compiles to a conditional move —
		// negative inputs (sign bit ⇒ negative int64) clamp to +0 with no
		// branch in the loop. The only value the rewrite treats differently
		// is -0, which rectifies to +0 instead of passing through; the two
		// compare equal everywhere downstream.
		yd := y.Data
		for i, v := range x.Data {
			b := math.Float64bits(v)
			if int64(b) < 0 {
				b = 0
			}
			yd[i] = math.Float64frombits(b)
		}
	}
	return y
}

// execLayerNorm is eval-mode nn.LayerNorm: nn.LayerNormInto, without the
// training caches, with the output drawn from the arena.
type execLayerNorm struct {
	eps         float64
	gamma, beta []float64
}

func (e *execLayerNorm) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	y := a.out(x.Shape...)
	return a.fill(y, func() { nn.LayerNormInto(x.Data, y.Data, e.gamma, e.beta, e.eps, nil, nil) })
}

// execMaxPool is eval-mode nn.MaxPool2D: nn.MaxPoolInto with the output
// drawn from the arena.
type execMaxPool struct {
	k, stride int
}

func (e *execMaxPool) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := a.out(n, c, (h-e.k)/e.stride+1, (w-e.k)/e.stride+1)
	return a.fill(y, func() { nn.MaxPoolInto(x.Data, y.Data, nil, n*c, h, w, e.k, e.stride) })
}

// execGlobalAvgPool is nn.GlobalAvgPool: nn.GlobalAvgPoolInto with the
// output drawn from the arena.
type execGlobalAvgPool struct{}

func (execGlobalAvgPool) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	y := a.out(x.Shape[0], x.Shape[1])
	return a.fill(y, func() { nn.GlobalAvgPoolInto(x.Data, y.Data, x.Shape[2]*x.Shape[3]) })
}

// execMeanPool is nn.MeanPoolTokens: nn.MeanPoolTokensInto with the output
// drawn from the arena, zeroed because the kernel accumulates.
type execMeanPool struct{}

func (execMeanPool) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	y := a.out(x.Shape[0], x.Shape[2])
	return a.fill(y, func() {
		clear(y.Data)
		nn.MeanPoolTokensInto(x.Data, y.Data, x.Shape[0], x.Shape[1], x.Shape[2])
	})
}

// execFlatten reshapes [N, ...] to [N, D]. It copies: a result that viewed
// its input would die with it.
type execFlatten struct{}

func (execFlatten) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	d := 1
	for _, v := range x.Shape[1:] {
		d *= v
	}
	y := a.out(x.Shape[0], d)
	copy(y.Data, x.Data)
	return y
}
