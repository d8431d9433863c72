package nn

import "repro/internal/tensor"

// Training workspace. A fine-tune runs TrainBatch hundreds of times on the
// same shapes, and every step moves megabytes between layers. Each layer
// therefore keeps, in its own fields, every tensor a training step makes:
//
//   - what flows: the layer's output and the input gradient its Backward
//     returns, and the reshaped headers it hands on (Flatten);
//   - the masked weight W ⊙ Mask its Forward multiplies by, which Backward
//     reads back instead of recomputing;
//   - what Backward reads back from Forward (im2col columns, normalized
//     activations, attention rows) and its own scratch (re-laid-out
//     gradients, dW, dcols).
//
// The next training-mode step overwrites them. A tensor buffer keeps its
// header and shape in the layer too, so a change of batch size (a ragged
// last batch, then a full one) re-slices storage and header in place: a
// layer allocates on its first step only, and again only when a batch
// outgrows the largest it has seen. The classifier's loss gradient is kept
// the same way (Classifier.TrainBatch).
//
// Linear, TokenLinear, PatchEmbed and attention's four projections keep
// theirs in a rowLinear, the one row-linear core they all run on.
//
// A layer's forward math is an exported kernel over plain slices that
// writes into destinations its caller passes (ConvOutInto, DepthwiseInto,
// BatchNormEvalInto, LayerNormInto, AttentionInto, MaxPoolInto,
// GlobalAvgPoolInto, MeanPoolTokensInto), with its training caches optional
// and no layer state. A Forward picks the destinations — the workspace in a
// training pass, fresh tensors in an eval-mode one — and calls the kernel;
// the inference engine calls the same kernels with its arena's buffers.
//
// A recycled buffer must never leak a value into a result. Every producer
// either writes each element it returns — Im2ColInto, the re-layout copies,
// the norm and activation loops, Gemm with beta=0, which clears its
// destination first — or accumulates with +=, and then its buffer is
// cleared first: buffer.zeroed for MaxPool2D's and DepthwiseConv2D's input
// gradients, attention's dQ, dK, dV and dX, and the two kernels that
// accumulate into their destination, AttentionInto (attention's Z) and
// MeanPoolTokensInto (MeanPoolTokens' output); Col2ImInto clears its own
// destination. The arithmetic is the one the
// allocating code ran, in the same order, so training is bit-identical
// (pruner's TestTrainingNumericsPinned, TestWorkspaceRecyclesNoValues).
//
// A tensor a training step returns — the logits, an input gradient — is
// the layer's and is overwritten by the next training step: callers read it
// before they train again. Only training-mode passes touch the workspace.
// An eval-mode Forward allocates what it returns and writes no layer field
// — not the workspace, not the input geometry (Conv2D.Geom's and
// DepthwiseConv2D.Geom's input size, PatchEmbed.LastTokens), which training
// passes alone record — so concurrent eval-mode passes on one classifier
// share nothing but the weights they read (TestEvalForwardIsRaceFree), and a
// released classifier stays released. The one eval-time write is opt-in:
// the counters of an ActStats a caller attached to the rectifiers.
//
// The workspace belongs to one classifier: it lives in that classifier's
// layers, never in a pool or a package variable, so no two models share a
// buffer. It is training state: it has no meaning once training ends, and a
// classifier that outlives its training run (a cached per-tenant model, a
// server's base model) must not pin it. Classifier.ReleaseTrainingState
// drops it all; the next training-mode Forward rebuilds whatever it needs.

// trainingState is implemented by every layer that holds memory between a
// training-mode Forward and the matching Backward, or across steps.
type trainingState interface {
	// trainingStateBytes reports the bytes the layer currently pins.
	trainingStateBytes() int64
	// releaseTrainingState drops them.
	releaseTrainingState()
}

// ReleaseTrainingState drops every layer's training workspace and backprop
// caches, and the classifier's loss gradient. Weights, gradients, masks and
// running statistics are untouched, so the classifier predicts, checkpoints
// and — on its next TrainBatch — trains exactly as it would have without
// the call. Callers that finish training a model they are going to keep
// (the pruners, the serving layer) call it once at the end.
func (c *Classifier) ReleaseTrainingState() {
	c.dlogits = buffer{}
	Walk(c.Net, func(l Layer) {
		if ts, ok := l.(trainingState); ok {
			ts.releaseTrainingState()
		}
	})
}

// TrainingStateBytes reports the bytes of training workspace and backprop
// caches clf pins: zero for a classifier that never trained or was released
// since. It is the training-side counterpart of inference.ModelBytes, which
// counts the state a resident model is charged for; what this counts is
// charged to nobody.
func TrainingStateBytes(clf *Classifier) int64 {
	n := clf.dlogits.bytes()
	Walk(clf.Net, func(l Layer) {
		if ts, ok := l.(trainingState); ok {
			n += ts.trainingStateBytes()
		}
	})
	return n
}

// buffer is one recycled tensor of a layer's workspace. The header, its
// shape and its storage all live in the layer, so the tensor costs one
// allocation — its storage — the first time and none after, whatever shape
// later steps ask for within that storage.
type buffer struct {
	t     tensor.Tensor
	shape [4]int
}

// take returns the buffer as a tensor of the given shape for the caller to
// overwrite: its contents are unspecified.
func (b *buffer) take(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	b.t.Data = grow(b.t.Data, n)
	b.t.Shape = append(b.shape[:0], shape...)
	return &b.t
}

// zeroed is take with every element cleared, for producers that accumulate
// into their result.
func (b *buffer) zeroed(shape ...int) *tensor.Tensor {
	t := b.take(shape...)
	clear(t.Data)
	return t
}

// view returns the buffer's header over data, which the buffer does not
// own, with the given shape: a reshape that allocates nothing.
func (b *buffer) view(data []float64, shape ...int) *tensor.Tensor {
	b.t.Data = data
	b.t.Shape = append(b.shape[:0], shape...)
	return &b.t
}

// bytes reports the storage the buffer pins; a view's storage is another
// buffer's, so callers count only buffers they take from.
func (b *buffer) bytes() int64 { return int64(cap(b.t.Data)) * 8 }

// result returns the tensor a Forward writes its output into: the buffer,
// with unspecified contents, in a training pass; a fresh tensor in an
// eval-mode one, which keeps nothing.
func (b *buffer) result(train bool, shape ...int) *tensor.Tensor {
	if !train {
		return tensor.New(shape...)
	}
	return b.take(shape...)
}

// masked returns p's masked weight W ⊙ Mask, shaped like W: in b in a
// training pass, where Backward reads it back; fresh in an eval-mode one.
func (b *buffer) masked(train bool, p *Param) *tensor.Tensor {
	if !train {
		return p.Effective()
	}
	t := b.take(p.W.Shape...)
	p.effectiveInto(t.Data)
	return t
}

// grow returns buf with length n, reusing its storage when that is large
// enough. The contents are unspecified: callers overwrite every element.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// accumulate adds src into dst elementwise. Gradients are computed into the
// workspace first and added in a second step, so a parameter's accumulated
// gradient sees the same sequence of additions whether or not an earlier
// batch already contributed to it.
func accumulate(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// sliceBytes sums the storage of the given buffers.
func sliceBytes(bufs ...[]float64) int64 {
	var n int64
	for _, b := range bufs {
		n += int64(cap(b)) * 8
	}
	return n
}

// bufferBytes sums the storage of the given buffers.
func bufferBytes(bs ...*buffer) int64 {
	var n int64
	for _, b := range bs {
		n += b.bytes()
	}
	return n
}
