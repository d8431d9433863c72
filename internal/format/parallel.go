package format

import "repro/internal/tensor"

// spmmParallelThreshold is the number of multiply-accumulate operations
// below which SpMM runs single-threaded, mirroring the dense GEMM's
// threshold: handing work to the pool costs more than it saves on small
// problems. Single-sample inference on the scaled models stays under it;
// batched inference (serve.Predict, Engine.PredictBatch) crosses it and
// fans out. Plan.matmul tests this bound before building the fan-out
// closure, so sub-threshold SpMMs are allocation-free.
const spmmParallelThreshold = 1 << 16

// parallelRows fans an SpMM's row range out over the persistent kernel
// worker pool shared with the dense GEMM (tensor.ParallelRows): no
// goroutines are spawned per call, and each output row keeps a single
// writer, so results stay bit-identical to the sequential loop.
func parallelRows(rows, work int, fn func(r0, r1 int)) {
	tensor.ParallelRows(rows, work, fn)
}
