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
//     format.Plan gather-multiply-accumulate kernel: the CSR image of its
//     W ⊙ Mask (absolute uint16 columns, per-row spans precomputed), built
//     straight from the non-zeros its source hands out. A CRISP-pruned
//     matrix's plan is the one its CRISP encoding (format.EncodeCRISP)
//     compiles to — the slot walk emits each row's non-zeros in ascending
//     column order too —, so it runs bit-identically to the slot-walking
//     kernel without the encoding being built. A matrix wider than
//     format.MaxCols is a compile error.
//   - Every forward pass draws its scratch — im2col matrices, transposes,
//     SpMM outputs, bias fan-outs, batch concats, attention state — from an
//     engine-owned arena recycled through a sync.Pool, so steady-state
//     Predict/PredictBatch calls are (near) zero-allocation. See arena.go
//     for the lifecycle.
//   - Multi-head attention's four projections (Q, K, V, O) are plans like
//     every other matrix: the tokens are transposed once, the plans run over
//     the whole batch, and only the per-head softmax / A·V loop is dense.
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
// quantized path rides the same arena (packed code and accumulator slabs
// pooled like the float slabs), so it is equally allocation-free; its
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
// provides. A compile sizes the engine before it builds anything and carves
// it from a fixed handful of exactly sized slabs, so it allocates per tenant,
// not per layer: one []float64 for every bias, γ, β, running statistic and
// depthwise kernel, one []format.Plan with one RowPtr, Col and Val array for
// the float plans, one format.QuantSlab for the int8 images, and one array
// per executor type (execSlabs). No matrix passes through a dense W ⊙ Mask
// on its way: the source walks out its non-zeros (OwnParams from W and Mask,
// a delta view from its mask bits and stored values) once to size the slabs
// and once to fill its plan. Once compiled,
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
	// arenas recycles per-call scratch arenas across forward passes, and
	// high sizes the arena built when the pool has none.
	arenas sync.Pool
	high   arenaHigh
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

// getArena checks an arena out of the pool for one forward pass.
func (e *Engine) getArena() *arena {
	if a, ok := e.arenas.Get().(*arena); ok {
		return a
	}
	return e.high.sized()
}

// putArena notes what the pass drew, then resets and recycles its arena.
func (e *Engine) putArena(a *arena) {
	e.high.note(a)
	a.reset()
	e.arenas.Put(a)
}

// Logits runs the sparse forward pass. The result is detached from the
// pass's arena (one small copy), so callers may hold it indefinitely.
func (e *Engine) Logits(x *tensor.Tensor) *tensor.Tensor {
	a := e.getArena()
	out := e.root.forward(x, a).Clone()
	e.putArena(a)
	return out
}

// LogitsBatch stacks B sample tensors into one [B, ...] batch and runs a
// single sparse forward pass, so every compressed layer serves the whole
// batch with one SpMM instead of B SpMMs. Outputs are bit-identical to
// calling Logits per sample: each output element is the same dot product
// accumulated in the same order regardless of batch size.
func (e *Engine) LogitsBatch(xs []*tensor.Tensor) *tensor.Tensor {
	a := e.getArena()
	out := e.root.forward(concatArena(xs, a), a).Clone()
	e.putArena(a)
	return out
}

// Predict returns the argmax class of every sample in the batch.
func (e *Engine) Predict(x *tensor.Tensor) []int {
	a := e.getArena()
	preds := nn.ArgmaxRows(e.root.forward(x, a), e.numClasses)
	e.putArena(a)
	return preds
}

// PredictBatch concatenates the sample tensors inside the pass's arena,
// runs one forward pass, and returns the per-row argmax — the serving
// batcher's entry point: a whole coalesced batch costs the same steady-state
// allocations as a single sample (the returned class slice).
func (e *Engine) PredictBatch(xs []*tensor.Tensor) []int {
	a := e.getArena()
	x := xs[0]
	if len(xs) > 1 {
		x = concatArena(xs, a)
	}
	preds := nn.ArgmaxRows(e.root.forward(x, a), e.numClasses)
	e.putArena(a)
	return preds
}

// concatArena is tensor.ConcatInto with the destination drawn from the arena.
// The destination header is composed in place (first tensor's shape with
// the lead dimension summed), so a batch concat costs zero allocations.
func concatArena(xs []*tensor.Tensor, a *arena) *tensor.Tensor {
	if len(xs) == 1 {
		// Still copied: callers may mutate their sample after the call.
		dst := a.tensor(xs[0].Shape...)
		copy(dst.Data, xs[0].Data)
		return dst
	}
	lead, vol := 0, 0
	for _, x := range xs {
		lead += x.Shape[0]
		vol += len(x.Data)
	}
	dst := a.header(xs[0].Shape)
	dst.Shape[0] = lead
	dst.Data = a.alloc(vol)
	return tensor.ConcatInto(xs, dst)
}

// execLayer is one node of the compiled forward pass. forward must draw all
// scratch from the arena and may return arena-backed tensors; callers that
// outlive the pass must copy.
type execLayer interface {
	forward(x *tensor.Tensor, a *arena) *tensor.Tensor
}

// compiler is one compile: the source it reads, the slabs the engine's
// vectors and plans are carved from, and the scratch plan an int8 image is
// quantized from. The engine keeps what was carved for it and nothing else;
// the scratch dies with the compile, and no slab serves two engines.
type compiler struct {
	e   *Engine
	src ParamSource
	// count and scatter take a source's non-zeros when they build no plan:
	// measure counts a matrix's, and a depthwise kernel scatters its own.
	count   counter
	scatter scatter
	// tmp holds the float plan an Int8 image is quantized from, rebuilt for
	// every matrix.
	tmp format.PlanSlab
	// plans, quants, vecs and execs back the engine: every float plan it
	// runs, every int8 image, every vector its executors index (biases, γ,
	// β, running statistics, depthwise kernels), and the executors
	// themselves. measure sizes each exactly.
	plans  format.PlanSlab
	quants format.QuantSlab
	vecs   []float64
	execs  execSlabs
}

// execSlabs back an engine's executors: one exactly sized array per executor
// type, and one for every execSeq's children, so a compile allocates per
// executor type, not per layer. Executors of no state (GELU, the pools
// without parameters, Flatten) are zero-sized and allocate nothing.
type execSlabs struct {
	seq       slab[execSeq]
	children  slab[execLayer]
	residual  slab[execResidual]
	conv      slab[sparseConv]
	linear    slab[sparseLinear]
	token     slab[sparseTokenLinear]
	patch     slab[sparsePatchEmbed]
	attention slab[execAttention]
	depthwise slab[execDepthwise]
	batchNorm slab[execBatchNorm]
	relu      slab[execReLU]
	layerNorm slab[execLayerNorm]
	maxPool   slab[execMaxPool]
	// convPlans are the float convs' fused kernels (format.ConvPlan).
	convPlans slab[format.ConvPlan]
}

// count adds what compile carves for l at prec to the slabs: its executor,
// an execSeq's children, a float conv's fused kernel. measure walks the tree
// with it.
func (x *execSlabs) count(l nn.Layer, prec Precision) {
	switch v := l.(type) {
	case *nn.Sequential:
		x.seq.n++
		x.children.n += len(v.Layers)
	case *nn.Residual:
		x.residual.n++
	case *nn.Conv2D:
		x.conv.n++
		if prec != Int8 {
			x.convPlans.n++
		}
	case *nn.Linear:
		x.linear.n++
	case *nn.TokenLinear:
		x.token.n++
	case *nn.PatchEmbed:
		x.patch.n++
	case *nn.MultiHeadAttention:
		x.attention.n++
	case *nn.DepthwiseConv2D:
		x.depthwise.n++
	case *nn.BatchNorm2D:
		x.batchNorm.n++
	case *nn.ReLU:
		x.relu.n++
	case *nn.LayerNorm:
		x.layerNorm.n++
	case *nn.MaxPool2D:
		x.maxPool.n++
	}
}

// left is how many counted elements compile has not carved.
func (x *execSlabs) left() int {
	return x.seq.left() + x.children.left() + x.residual.left() + x.conv.left() +
		x.linear.left() + x.token.left() + x.patch.left() + x.attention.left() +
		x.depthwise.left() + x.batchNorm.left() + x.relu.left() + x.layerNorm.left() +
		x.maxPool.left() + x.convPlans.left()
}

// slab is one element type's exactly sized array: measure counts n, and
// compile carves it front to back, making it whole at the first carve. A
// carve past n panics.
type slab[T any] struct {
	n    int
	free []T
}

// take carves the next k elements.
func (s *slab[T]) take(k int) []T {
	if s.free == nil {
		s.free = make([]T, s.n)
	}
	v := s.free[:k:k]
	s.free = s.free[k:]
	return v
}

// next carves one element.
func (s *slab[T]) next() *T { return &s.take(1)[0] }

// carve places v in the next element of s.
func carve[T any](s *slab[T], v T) *T {
	p := s.next()
	*p = v
	return p
}

func (s *slab[T]) left() int {
	if s.free == nil {
		return s.n
	}
	return len(s.free)
}

// engine compiles tree at prec, reading every value through c.src. It fails
// unless compile carves the slabs measure sized to the element.
func (c *compiler) engine(tree *nn.Classifier, prec Precision) (*Engine, error) {
	c.e = &Engine{numClasses: tree.NumClasses, precision: prec, fingerprint: format.HashInit}
	if prec == Int8 {
		c.e.quantSig = format.HashInit // stays 0, the "no codes" signature, at Float32
	}
	if err := c.measure(tree.Net); err != nil {
		return nil, err
	}
	root, err := c.compile(tree.Net)
	if err != nil {
		return nil, err
	}
	plans, rowPtrs, nnz := c.plans.Left()
	images, rows, codes := c.quants.Left()
	if execs := c.execs.left(); len(c.vecs)+plans+rowPtrs+nnz+images+rows+codes+execs != 0 {
		return nil, fmt.Errorf("inference: compile and measure disagree: %d vector elements, %d plans, %d row pointers, %d entries, %d images, %d image rows, %d codes and %d executors left over",
			len(c.vecs), plans, rowPtrs, nnz, images, rows, codes, execs)
	}
	c.e.root = root
	return c.e, nil
}

// compile mirrors the layer tree, swapping weight-bearing layers for
// plan-backed executors and eval-mode layers for arena-backed ones, with
// every value read through c.src into memory carved from c's slabs, the
// executors too. A layer type it does not know is an error: there is no
// executor that could run it without retaining it.
func (c *compiler) compile(l nn.Layer) (execLayer, error) {
	switch v := l.(type) {
	case *nn.Sequential:
		out := carve(&c.execs.seq, execSeq{layers: c.execs.children.take(len(v.Layers))})
		for i, child := range v.Layers {
			cl, err := c.compile(child)
			if err != nil {
				return nil, err
			}
			out.layers[i] = cl
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
		return carve(&c.execs.residual, execResidual{main: main, shortcut: short}), nil
	case *nn.Conv2D:
		mm, err := c.newSpMM(v.Weight)
		if err != nil {
			return nil, err
		}
		sc := carve(&c.execs.conv, sparseConv{geom: v.Geom, outC: v.OutC, bias: c.own(v.Bias), mm: mm})
		if mm.plan != nil {
			// Float engines run conv through the fused implicit-im2col
			// kernel (see format.CompileConv).
			sc.cp = mm.plan.CompileConv(c.execs.convPlans.next(), v.Geom.KH, v.Geom.KW, v.Geom.Stride, v.Geom.Pad)
			c.e.footprint += sc.cp.SizeBytes()
		}
		return sc, nil
	case *nn.Linear:
		mm, err := c.newSpMM(v.Weight)
		if err != nil {
			return nil, err
		}
		return carve(&c.execs.linear, sparseLinear{in: v.In, out: v.Out, bias: c.own(v.Bias), mm: mm}), nil
	case *nn.TokenLinear:
		mm, err := c.newSpMM(v.Weight)
		if err != nil {
			return nil, err
		}
		return carve(&c.execs.token, sparseTokenLinear{in: v.In, out: v.Out, bias: c.own(v.Bias), mm: mm}), nil
	case *nn.PatchEmbed:
		mm, err := c.newSpMM(v.Weight)
		if err != nil {
			return nil, err
		}
		return carve(&c.execs.patch, sparsePatchEmbed{pe: nn.PatchEmbed{C: v.C, P: v.P, D: v.D}, bias: c.own(v.Bias), mm: mm}), nil
	case *nn.MultiHeadAttention:
		// Float plans at either precision: taking attention to int8 is an
		// accuracy question the golden agreement suite has not been asked.
		var w [4]*format.Plan
		for i, p := range [...]*nn.Param{v.Wq, v.Wk, v.Wv, v.Wo} {
			var err error
			if w[i], err = c.newPlan(p); err != nil {
				return nil, err
			}
		}
		return carve(&c.execs.attention, execAttention{d: v.D, heads: v.Heads, wq: w[0], wk: w[1], wv: w[2], wo: w[3]}), nil
	case *nn.DepthwiseConv2D:
		// A kernel is a vector, W ⊙ Mask byte for byte: each zero of it is
		// W·0 — signed as nn's eval forward signs it —, each non-zero the
		// source's.
		c.scatter = c.own(v.Weight)
		for i := range c.scatter {
			c.scatter[i] *= 0
		}
		c.src.NonZerosInto(v.Weight, &c.scatter)
		return carve(&c.execs.depthwise, execDepthwise{geom: v.Geom, bias: c.own(v.Bias), weff: c.scatter}), nil
	case *nn.BatchNorm2D:
		n := len(v.RunMean.Data)
		mean, variance := c.vector(n), c.vector(n)
		c.src.NormStatsInto(v, mean, variance)
		return carve(&c.execs.batchNorm, execBatchNorm{
			eps: v.Eps, mean: mean, variance: variance,
			gamma: c.own(v.Gamma), beta: c.own(v.Beta),
		}), nil
	case *nn.ReLU:
		return carve(&c.execs.relu, execReLU{clip: v.Cap}), nil
	case *nn.GELU:
		return execGELU{}, nil
	case *nn.LayerNorm:
		return carve(&c.execs.layerNorm, execLayerNorm{d: v.D, eps: v.Eps, gamma: c.own(v.Gamma), beta: c.own(v.Beta)}), nil
	case *nn.MaxPool2D:
		return carve(&c.execs.maxPool, execMaxPool{k: v.K, stride: v.Stride}), nil
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

// takes is compile's switch reduced to what each case takes from the source,
// in compile order: matrix for every weight compiled to a plan (kept when the
// engine runs that float plan — an Int8 engine quantizes all but
// attention's), vector for every run of values an executor copies (a bias, γ,
// β, a norm layer's two running statistics, a depthwise kernel). A case that
// compile and takes see differently leaves a slab over, which fails the
// compile, or runs one short, which panics; TestEngineSlabsAreExact compiles
// every family at both precisions.
func takes(l nn.Layer, prec Precision, matrix func(p *nn.Param, kept bool), vector func(n int)) {
	vec := func(ps ...*nn.Param) {
		for _, p := range ps {
			if p != nil {
				vector(p.W.Len())
			}
		}
	}
	float := prec != Int8
	nn.Walk(l, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			matrix(v.Weight, float)
			vec(v.Bias)
		case *nn.Linear:
			matrix(v.Weight, float)
			vec(v.Bias)
		case *nn.TokenLinear:
			matrix(v.Weight, float)
			vec(v.Bias)
		case *nn.PatchEmbed:
			matrix(v.Weight, float)
			vec(v.Bias)
		case *nn.MultiHeadAttention:
			for _, p := range [...]*nn.Param{v.Wq, v.Wk, v.Wv, v.Wo} {
				matrix(p, true)
			}
		case *nn.DepthwiseConv2D:
			vec(v.Weight, v.Bias)
		case *nn.BatchNorm2D:
			vector(2 * len(v.RunMean.Data))
			vec(v.Gamma, v.Beta)
		case *nn.LayerNorm:
			vec(v.Gamma, v.Beta)
		}
	})
}

// measure sizes everything a compile allocates before compile carves
// anything, in walks of takes: one for shapes (the vector elements, the kept
// plans and the images with their rows), with the executors counted beside
// it; one that counts each matrix's non-zeros through the source, which are
// exactly the entries its plan keeps; and at Int8, with the scratch plan made
// at the size of the largest, one that builds each image's float plan to
// count the codes it quantizes to. A matrix wider than a plan's uint16
// columns reach is an error naming the parameter, raised before the source
// is read.
func (c *compiler) measure(root nn.Layer) error {
	var vecs, plans, rows, images, imageRows int
	var wide *nn.Param
	takes(root, c.e.precision, func(p *nn.Param, kept bool) {
		if p.Cols > format.MaxCols && wide == nil {
			wide = p
		}
		if kept {
			plans++
			rows += p.Rows
		} else {
			images++
			imageRows += p.Rows
		}
	}, func(n int) { vecs += n })
	if wide != nil {
		return fmt.Errorf("inference: %s has %d columns, a plan holds at most %d", wide.Name, wide.Cols, format.MaxCols)
	}
	nn.Walk(root, func(l nn.Layer) { c.execs.count(l, c.e.precision) })
	c.vecs = make([]float64, vecs)
	c.quants = format.NewQuantSlab(images, imageRows)
	var nnz, tmpRows, tmpNNZ int
	takes(root, c.e.precision, func(p *nn.Param, kept bool) {
		c.count = 0
		c.src.NonZerosInto(p, &c.count)
		if kept {
			nnz += int(c.count)
			return
		}
		tmpRows, tmpNNZ = max(tmpRows, p.Rows), max(tmpNNZ, int(c.count))
	}, func(int) {})
	c.plans = format.NewPlanSlab(plans, rows, nnz)
	if images == 0 {
		return nil
	}
	c.tmp = format.NewPlanSlab(1, tmpRows, tmpNNZ)
	var err error
	takes(root, c.e.precision, func(p *nn.Param, kept bool) {
		if kept || err != nil {
			return
		}
		var plan *format.Plan
		if plan, err = c.scratchPlan(p); err == nil {
			var codes int
			codes, err = plan.QuantCodes()
			c.quants.Reserve(codes)
		}
	}, func(int) {})
	return err
}

// counter counts the entries it is handed.
type counter int

// Add implements format.EntrySink.
func (n *counter) Add(int, float64) { *n++ }

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
		return s.plan.MatMulInto(b, out)
	}
	n := out.Shape[1]
	halfW := (n + 1) / 2
	return s.qplan.MatMulInto(b, out, format.QuantScratch{
		Packed:   a.allocU64(s.qplan.Cols * halfW),
		ColScale: a.alloc(n),
		ColInv:   a.alloc(n),
		AccP:     a.allocU64(s.qplan.Rows * halfW),
		AccN:     a.allocU64(s.qplan.Rows * halfW),
	})
}

// newSpMM compiles one weight-bearing layer's SpMM dispatch at the engine's
// precision. An Int8 engine keeps the image, carved from the engine's image
// slab, and not the float plan it was quantized from: that plan is built in
// the compile's scratch, which the next matrix rebuilds, since no forward
// path reads it.
func (c *compiler) newSpMM(p *nn.Param) (spmm, error) {
	if c.e.precision != Int8 {
		plan, err := c.newPlan(p)
		return spmm{plan: plan}, err
	}
	plan, err := c.scratchPlan(p)
	if err != nil {
		return spmm{}, err
	}
	c.compiled(plan)
	q, err := plan.QuantizeIn(&c.quants)
	if err != nil {
		return spmm{}, err
	}
	c.e.quantSig = q.Hash(c.e.quantSig)
	c.e.footprint += q.SizeBytes()
	return spmm{qplan: q}, nil
}

// newPlan builds a float-executed matrix's plan in the engine's plan slab
// and charges it to the footprint.
func (c *compiler) newPlan(p *nn.Param) (*format.Plan, error) {
	plan, err := c.build(p, &c.plans)
	if err != nil {
		return nil, err
	}
	c.compiled(plan)
	c.e.footprint += plan.SizeBytes()
	return plan, nil
}

// scratchPlan builds p's plan in the compile's scratch, which the next call
// rebuilds.
func (c *compiler) scratchPlan(p *nn.Param) (*format.Plan, error) {
	c.tmp.Rewind()
	return c.build(p, &c.tmp)
}

// build is how every matrix becomes a plan, at either precision: the next
// plan of s, filled with the non-zeros of p's W ⊙ Mask the source hands it.
// The plan keeps exactly those, each row's in ascending column order, which
// is the order the CRISP and CSR storage kernels accumulate a row in.
func (c *compiler) build(p *nn.Param, s *format.PlanSlab) (*format.Plan, error) {
	if err := s.Begin(p.Rows, p.Cols); err != nil {
		return nil, err
	}
	c.src.NonZerosInto(p, s)
	return s.End()
}

// compiled folds a plan-backed layer's plan into the engine's fingerprint
// and counts the layer compressed.
func (c *compiler) compiled(plan *format.Plan) {
	c.e.fingerprint = c.e.fingerprint.Uint64(plan.Fingerprint())
	c.e.CompressedLayers++
}

// vector carves the next n elements of the vector slab and charges them to
// the footprint.
func (c *compiler) vector(n int) []float64 {
	v := c.vecs[:n:n]
	c.vecs = c.vecs[n:]
	c.e.footprint += int64(n) * 8
	return v
}

// own copies a parameter's values into the vector slab (nil for an absent
// parameter, e.g. a bias-free conv).
func (c *compiler) own(p *nn.Param) []float64 {
	if p == nil {
		return nil
	}
	v := c.vector(p.W.Len())
	c.src.ValuesInto(p, v)
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
	case *sparseLinear:
		v.Param(x.mm.plan, nil)
		walkBias(x.bias, v)
	case *sparseTokenLinear:
		v.Param(x.mm.plan, nil)
		walkBias(x.bias, v)
	case *sparsePatchEmbed:
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

// execSeq chains executors.
type execSeq struct {
	layers []execLayer
}

func (s *execSeq) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.forward(x, a)
	}
	return x
}

// execResidual computes main(x) + shortcut(x) (nil shortcut = identity)
// into an arena buffer. The arena never reuses memory within a pass, so x
// stays intact across the main branch.
type execResidual struct {
	main, shortcut execLayer
}

func (r *execResidual) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	m := r.main.forward(x, a)
	s := x
	if r.shortcut != nil {
		s = r.shortcut.forward(x, a)
	}
	out := a.tensor(m.Shape...)
	for i, v := range m.Data {
		out.Data[i] = v + s.Data[i]
	}
	return out
}

// execGELU is eval-mode nn.GELU with the output drawn from the arena.
type execGELU struct{}

func (execGELU) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	y := a.tensor(x.Shape...)
	for i, v := range x.Data {
		y.Data[i] = nn.Gelu(v)
	}
	return y
}

// convBatchLastMin gates the batch-last implicit-im2col conv path: its two
// transposes and per-tap AXPY runs amortize over the batch width, and at
// n < 4 the runs are too short to beat the materialized-im2col lowering
// (at n=1 they are pure overhead — per-sample inference measures ~50%
// slower batch-last). Small batches fall through to the default case.
const convBatchLastMin = 4

// sparseConv runs Conv2D from a compiled weight plan.
type sparseConv struct {
	geom tensor.ConvGeom // kernel shape; InH/InW come from each input
	outC int
	bias []float64 // nil for a bias-free conv
	mm   spmm
	cp   *format.ConvPlan // fused implicit-im2col kernel; nil in Int8 engines
}

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
		xT := tensor.TransposeInto(a.view(x.Data, n, chw), a.tensor(chw, n))
		outT := s.cp.MatMulBatchLastInto(xT, g, n, a.tensor(s.outC*oh*ow, n))
		y := a.tensor(n, s.outC, oh, ow)
		tensor.TransposeInto(outT, a.view(y.Data, n, s.outC*oh*ow))
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
		cols := tensor.Im2ColInto(x, g, a.tensor(g.InC*g.KH*g.KW, n*oh*ow))
		outMat = s.mm.into(cols, a.tensor(s.outC, n*oh*ow), a)
	}
	p := oh * ow
	y := a.tensor(n, s.outC, oh, ow)
	for oc := 0; oc < s.outC; oc++ {
		bias := 0.0
		if s.bias != nil {
			bias = s.bias[oc]
		}
		src := outMat.Data[oc*n*p : (oc+1)*n*p]
		for b := 0; b < n; b++ {
			dst := y.Data[(b*s.outC+oc)*p : (b*s.outC+oc+1)*p]
			for i, v := range src[b*p : (b+1)*p] {
				dst[i] = v + bias
			}
		}
	}
	return y
}

// sparseLinear runs Linear from a compiled weight plan: y = (W·xᵀ)ᵀ + b.
type sparseLinear struct {
	in, out int
	bias    []float64
	mm      spmm
}

func (s *sparseLinear) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n := x.Shape[0]
	// SpMM computes W·B for B = xᵀ [In, N].
	xt := tensor.TransposeInto(x, a.tensor(s.in, n))
	out := s.mm.into(xt, a.tensor(s.out, n), a) // [Out, N]
	y := a.tensor(n, s.out)
	for j := 0; j < s.out; j++ {
		for b := 0; b < n; b++ {
			y.Data[b*s.out+j] = out.Data[j*n+b] + s.bias[j]
		}
	}
	return y
}

// sparseTokenLinear runs TokenLinear from a compiled weight plan.
type sparseTokenLinear struct {
	in, out int
	bias    []float64
	mm      spmm
}

func (s *sparseTokenLinear) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n, t := x.Shape[0], x.Shape[1]
	flat := a.view(x.Data, n*t, s.in)
	xt := tensor.TransposeInto(flat, a.tensor(s.in, n*t))
	out := s.mm.into(xt, a.tensor(s.out, n*t), a) // [Out, N*T]
	y := a.tensor(n*t, s.out)
	for j := 0; j < s.out; j++ {
		for r := 0; r < n*t; r++ {
			y.Data[r*s.out+j] = out.Data[j*n*t+r] + s.bias[j]
		}
	}
	return a.view(y.Data, n, t, s.out)
}

// sparsePatchEmbed runs PatchEmbed from a compiled weight plan.
type sparsePatchEmbed struct {
	pe   nn.PatchEmbed // geometry only (C, P, D): no Params
	bias []float64
	mm   spmm
}

func (s *sparsePatchEmbed) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	// Reuse the dense patch extraction, then the sparse projection.
	n := x.Shape[0]
	t := (x.Shape[2] / s.pe.P) * (x.Shape[3] / s.pe.P)
	in := s.pe.C * s.pe.P * s.pe.P
	patches := s.pe.ExtractPatchesInto(x, a.tensor(n*t, in)) // [N*T, C*P*P]
	xt := tensor.TransposeInto(patches, a.tensor(in, n*t))
	out := s.mm.into(xt, a.tensor(s.pe.D, n*t), a) // [D, N*T]
	y := a.tensor(n*t, s.pe.D)
	for j := 0; j < s.pe.D; j++ {
		for r := 0; r < n*t; r++ {
			y.Data[r*s.pe.D+j] = out.Data[j*n*t+r] + s.bias[j]
		}
	}
	return a.view(y.Data, n, t, s.pe.D)
}

// execAttention runs multi-head self-attention with its four projections
// as compiled float plans; all intermediate state (transposes, Q, K, V,
// attention rows, head outputs) lives in the pass's arena. The per-head math
// is the eval-mode nn.MultiHeadAttention forward, step for step.
type execAttention struct {
	d, heads       int
	wq, wk, wv, wo *format.Plan
}

func (m *execAttention) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n, t := x.Shape[0], x.Shape[1]
	dh := m.d / m.heads
	scale := 1.0 / math.Sqrt(float64(dh))

	// project computes tokens · Wᵀ for tokens handed over transposed
	// ([D, N*T]) and returns it token-major, as a flat [N*T, D] tensor.
	project := func(srcT *tensor.Tensor, w *format.Plan) *tensor.Tensor {
		out := w.MatMulInto(srcT, a.tensor(m.d, n*t))
		return tensor.TransposeInto(out, a.tensor(n*t, m.d))
	}
	xT := tensor.TransposeInto(a.view(x.Data, n*t, m.d), a.tensor(m.d, n*t))
	q := project(xT, m.wq)
	k := project(xT, m.wk)
	v := project(xT, m.wv)
	z := a.tensorZero(n*t, m.d) // accumulated head by head
	attn := a.alloc(n * m.heads * t * t)

	for b := 0; b < n; b++ {
		for h := 0; h < m.heads; h++ {
			off := h * dh
			aBase := (b*m.heads + h) * t * t
			// S[i][j] = q_i · k_j * scale; softmax rows → A; Z = A·V.
			for i := 0; i < t; i++ {
				qi := q.Data[(b*t+i)*m.d+off : (b*t+i)*m.d+off+dh]
				row := attn[aBase+i*t : aBase+(i+1)*t]
				maxv := math.Inf(-1)
				for j := 0; j < t; j++ {
					kj := k.Data[(b*t+j)*m.d+off : (b*t+j)*m.d+off+dh]
					s := 0.0
					for l, qv := range qi {
						s += qv * kj[l]
					}
					row[j] = s * scale
					if row[j] > maxv {
						maxv = row[j]
					}
				}
				sum := 0.0
				for j := range row {
					row[j] = math.Exp(row[j] - maxv)
					sum += row[j]
				}
				zi := z.Data[(b*t+i)*m.d+off : (b*t+i)*m.d+off+dh]
				for j := range row {
					row[j] /= sum
					vj := v.Data[(b*t+j)*m.d+off : (b*t+j)*m.d+off+dh]
					for l := range zi {
						zi[l] += row[j] * vj[l]
					}
				}
			}
		}
	}
	out := project(tensor.TransposeInto(z, a.tensor(m.d, n*t)), m.wo)
	return a.view(out.Data, n, t, m.d)
}

// execDepthwise runs DepthwiseConv2D with the masked kernels materialized
// at compile time and the output drawn from the arena.
type execDepthwise struct {
	geom tensor.ConvGeom
	bias []float64 // nil for a bias-free conv
	weff []float64 // [C, KH·KW]
}

func (d *execDepthwise) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	g := d.geom
	g.InH, g.InW = x.Shape[2], x.Shape[3]
	n, cch := x.Shape[0], g.InC
	oh, ow := g.OutH(), g.OutW()
	y := a.tensor(n, cch, oh, ow)
	for b := 0; b < n; b++ {
		for ch := 0; ch < cch; ch++ {
			src := x.Data[(b*cch+ch)*g.InH*g.InW : (b*cch+ch+1)*g.InH*g.InW]
			ker := d.weff[ch*g.KH*g.KW : (ch+1)*g.KH*g.KW]
			dst := y.Data[(b*cch+ch)*oh*ow : (b*cch+ch+1)*oh*ow]
			bias := 0.0
			if d.bias != nil {
				bias = d.bias[ch]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := bias
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.Stride + kh - g.Pad
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.Stride + kw - g.Pad
							if ix < 0 || ix >= g.InW {
								continue
							}
							s += ker[kh*g.KW+kw] * src[iy*g.InW+ix]
						}
					}
					dst[oy*ow+ox] = s
				}
			}
		}
	}
	return y
}

// execBatchNorm is the eval branch of nn.BatchNorm2D (running statistics)
// with the output drawn from the arena.
type execBatchNorm struct {
	eps                         float64
	mean, variance, gamma, beta []float64
}

func (e *execBatchNorm) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := a.tensor(x.Shape...)
	for ch := 0; ch < c; ch++ {
		inv := 1.0 / math.Sqrt(e.variance[ch]+e.eps)
		mean := e.mean[ch]
		g, be := e.gamma[ch], e.beta[ch]
		for b := 0; b < n; b++ {
			off := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				y.Data[off+i] = g*(x.Data[off+i]-mean)*inv + be
			}
		}
	}
	return y
}

// execReLU is the eval-mode rectifier (optionally clipped) with the output
// drawn from the arena. Cap is the layer's at compile time. An engine counts
// no activations: nn.ReLU.Stats is the nn model's hook, and copying it here
// would let every engine pass write the classifier's counters.
type execReLU struct {
	clip float64 // > 0 clips activations there (ReLU6)
}

func (e *execReLU) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	y := a.tensor(x.Shape...)
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

// execLayerNorm is eval-mode nn.LayerNorm with the output drawn from the
// arena.
type execLayerNorm struct {
	d           int
	eps         float64
	gamma, beta []float64
}

func (e *execLayerNorm) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	rows := x.Shape[0] * x.Shape[1]
	y := a.tensor(x.Shape...)
	d := float64(e.d)
	for r := 0; r < rows; r++ {
		seg := x.Data[r*e.d : (r+1)*e.d]
		mean := 0.0
		for _, v := range seg {
			mean += v
		}
		mean /= d
		variance := 0.0
		for _, v := range seg {
			variance += (v - mean) * (v - mean)
		}
		variance /= d
		inv := 1.0 / math.Sqrt(variance+e.eps)
		out := y.Data[r*e.d : (r+1)*e.d]
		for i, v := range seg {
			out[i] = e.gamma[i]*((v-mean)*inv) + e.beta[i]
		}
	}
	return y
}

// execMaxPool is eval-mode nn.MaxPool2D with the output drawn from the
// arena.
type execMaxPool struct {
	k, stride int
}

func (e *execMaxPool) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-e.k)/e.stride + 1
	ow := (w-e.k)/e.stride + 1
	y := a.tensor(n, c, oh, ow)
	oi := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := plane[oy*e.stride*w+ox*e.stride]
					for ky := 0; ky < e.k; ky++ {
						for kx := 0; kx < e.k; kx++ {
							if v := plane[(oy*e.stride+ky)*w+ox*e.stride+kx]; v > best {
								best = v
							}
						}
					}
					y.Data[oi] = best
					oi++
				}
			}
		}
	}
	return y
}

// execGlobalAvgPool is nn.GlobalAvgPool with the output drawn from the
// arena.
type execGlobalAvgPool struct{}

func (execGlobalAvgPool) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	y := a.tensor(n, c)
	inv := 1.0 / float64(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			s := 0.0
			for _, v := range x.Data[(b*c+ch)*h*w : (b*c+ch+1)*h*w] {
				s += v
			}
			y.Data[b*c+ch] = s * inv
		}
	}
	return y
}

// execMeanPool is nn.MeanPoolTokens with the output drawn from the arena
// (zeroed: the token loop accumulates).
type execMeanPool struct{}

func (execMeanPool) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	n, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	y := a.tensorZero(n, d)
	inv := 1.0 / float64(t)
	for b := 0; b < n; b++ {
		for tt := 0; tt < t; tt++ {
			for j := 0; j < d; j++ {
				y.Data[b*d+j] += x.Data[(b*t+tt)*d+j] * inv
			}
		}
	}
	return y
}

// execFlatten reshapes [N, ...] to [N, D] as a zero-copy arena view.
type execFlatten struct{}

func (execFlatten) forward(x *tensor.Tensor, a *arena) *tensor.Tensor {
	return a.view(x.Data, x.Shape[0], len(x.Data)/x.Shape[0])
}
