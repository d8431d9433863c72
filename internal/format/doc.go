// Package format implements the sparse-weight storage formats compared in
// the CRISP paper's Fig. 4: CSR, ELLPACK, Blocked-ELLPACK and the CRISP
// hybrid format (Blocked-ELLPACK block-column indices plus packed
// ⌈log2 M⌉-bit intra-group offsets for the N:M non-zeros).
//
// Each format has a real encoder (encode → decode round-trips the masked
// matrix, SpMM matches dense GEMM) and an analytical metadata-bit model used
// to evaluate full-size ImageNet layers without materializing them. The bit
// conventions follow common practice and are validated against the paper's
// reported ≈5×/≈7× CSR/ELLPACK overheads:
//
//   - CSR: one ⌈log2 cols⌉-bit column index per non-zero + 32-bit row
//     pointers.
//   - ELLPACK (ITPACK): rows padded to the maximum row population, 16-bit
//     column indices (the format's fixed-width index array).
//   - Blocked-ELLPACK: one ⌈log2 gridCols⌉-bit block-column index per kept
//     block.
//   - CRISP: Blocked-ELLPACK block indices + ⌈log2 M⌉ bits per kept N:M slot.
//
// # Execution plans
//
// The storage formats model what the hardware stores; executing them
// directly pays block-grid arithmetic, offset decoding and padding-slot
// branches on every SpMM. For software serving each encoding therefore
// compiles — once, via Compile — into a Plan: a flat
// row-pointer / column-index / value layout with zero slots dropped, whose
// kernel is a straight gather-multiply-accumulate that accumulates in
// exactly the storage kernel's order (bit-identical results). Large SpMMs
// fan out over the persistent kernel worker pool through tensor.JobPool,
// each call handing it a recycled job record (convJob, quantJob, …): the
// steady-state hot path spawns no goroutines and allocates nothing, and
// MatMulInto variants let callers supply recycled output buffers.
//
// # The blocked kernel family
//
// A compiled Plan runs one of two kernel implementations of the same SpMM
// (plan.go, blocked.go, microkernel.go):
//
//   - the scalar reference kernel: one pass per row span, full-batch-width
//     AXPY per entry (rowRange) — the semantics-defining implementation;
//   - the register-blocked panel kernels: eight- and four-column panels
//     whose partial sums live in register accumulators across the whole
//     span (spanPanel8/spanPanel4 and a tail kernel), run over row chunks
//     handed to the worker pool
//     (matmulBlocked), with a CRISP-structure fast path for plans whose
//     row spans were proved uniform at compile time (blockedTileUniform,
//     fixed trip counts, no row-pointer loads).
//
// Which one runs is decided in one place, per call: Plan.matmul asks
// blockedAuto, which takes the blocked path when the batch is one panel
// pass (4 ≤ n ≤ 8) over a cache-resident activation (Cols·n·8 ≤ 1 MiB)
// and the scalar kernel otherwise. A plan carries no kernel choice. The
// int8 kernel (QuantPlan) is the scalar SWAR walk at every batch width.
//
// # Bit-exactness contract
//
// Every kernel must produce output bit-identical to the scalar reference:
// for each output element, floating-point products are added in ascending
// span (storage) order. Blocking, panel width, row chunking and parallel
// fan-out may change where partial sums live and which order output
// *elements* are produced in, but never the order of additions *within* an
// element. The conformance harness (conformance_test.go) proves the public
// dispatch and the blocked driver — at ragged and default chunk sizes, at
// batch widths the dispatch would never send it —
// bit-identical to the scalar reference across a geometry/batch grid, and
// FuzzBlockedMatMul replays the same differential check under
// fuzzer-chosen shapes, sparsity and values. A new kernel joins the family
// by being driven from checkAgainstScalar.
package format
