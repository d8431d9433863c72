package nn

import "repro/internal/tensor"

// Training workspace. A training-mode Forward/Backward pair needs megabytes
// of scratch per layer — the im2col matrix, the GEMM output before re-layout,
// the re-laid-out gradient, dcols, dW, normalized activations — and a
// fine-tune runs that pair hundreds of times on the same shapes. Each layer
// therefore keeps those buffers in its own fields and overwrites them on the
// next step instead of allocating fresh ones: every producer below either
// writes every element (Im2ColInto, the re-layout copies, the norm loops) or
// goes through Gemm with beta=0, which clears its destination first, so a
// recycled buffer never leaks a value into a result.
//
// Only training-mode passes touch the workspace. An eval-mode Forward
// allocates what it needs and keeps nothing, so it stays safe to call from
// several goroutines and leaves a released classifier released.
//
// The workspace, and every activation a layer caches for Backward, is
// training state: it has no meaning once training ends, and a classifier that
// outlives its training run (a cached per-tenant model, a server's base
// model) must not pin it. Classifier.ReleaseTrainingState drops it all; the
// next training-mode Forward rebuilds whatever it needs.

// trainingState is implemented by every layer that holds memory between a
// training-mode Forward and the matching Backward, or across steps.
type trainingState interface {
	// trainingStateBytes reports the bytes the layer currently pins.
	trainingStateBytes() int64
	// releaseTrainingState drops them.
	releaseTrainingState()
}

// ReleaseTrainingState drops every layer's training workspace and backprop
// caches. Weights, gradients, masks and running statistics are untouched, so
// the classifier predicts, checkpoints and — on its next TrainBatch — trains
// exactly as it would have without the call. Callers that finish training a
// model they are going to keep (the pruners, the serving layer) call it once
// at the end.
func (c *Classifier) ReleaseTrainingState() {
	Walk(c.Net, func(l Layer) {
		if ts, ok := l.(trainingState); ok {
			ts.releaseTrainingState()
		}
	})
}

// TrainingStateBytes reports the bytes of training workspace and backprop
// caches clf's layers currently pin: zero for a classifier that never
// trained or was released since. It is the training-side counterpart of
// inference.ModelBytes, which counts the state a resident model is charged
// for; what this counts is charged to nobody.
func TrainingStateBytes(clf *Classifier) int64 {
	var n int64
	Walk(clf.Net, func(l Layer) {
		if ts, ok := l.(trainingState); ok {
			n += ts.trainingStateBytes()
		}
	})
	return n
}

// grow returns buf with length n, reusing its storage when that is large
// enough. The contents are unspecified: callers overwrite every element.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// reuse2D returns a [rows, cols] tensor for the caller to overwrite,
// recycling t itself when the shape repeats (every step of an epoch but a
// ragged last one) and t's storage when only the volume fits.
func reuse2D(t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if t == nil {
		return tensor.New(rows, cols)
	}
	if len(t.Shape) == 2 && t.Shape[0] == rows && t.Shape[1] == cols {
		return t
	}
	return tensor.FromSlice(grow(t.Data, rows*cols), rows, cols)
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

// tensorBytes sums the storage of the given tensors, nil ones counting zero.
func tensorBytes(ts ...*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		if t != nil {
			n += int64(cap(t.Data)) * 8
		}
	}
	return n
}

// sliceBytes sums the storage of the given buffers.
func sliceBytes(bufs ...[]float64) int64 {
	var n int64
	for _, b := range bufs {
		n += int64(cap(b)) * 8
	}
	return n
}
