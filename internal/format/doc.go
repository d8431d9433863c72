// Package format implements the sparse-weight storage formats compared in
// the CRISP paper's Fig. 4: CSR, ELLPACK, Blocked-ELLPACK and the CRISP
// hybrid format (Blocked-ELLPACK block-column indices plus packed
// ⌈log2 M⌉-bit intra-group offsets for the N:M non-zeros).
//
// CSR, ELLPACK and CRISP each have a real encoder (its test-side decode
// round-trips the masked matrix, its SpMM matches dense GEMM); every format
// has an analytical metadata-bit model used to evaluate full-size ImageNet
// layers without materializing them. The bit
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
// branches on every SpMM. Software serving runs a Plan instead: a flat
// image of W ⊙ Mask's non-zeros, each row's in ascending column order,
// whose kernel is a straight gather-multiply-accumulate. Its metadata is
// split the way the CRISP format's is, coarse index shared and fine offset
// per weight: each row is cut into 256-column segments (SegCols), the row
// pointer holds a span per (row, segment), and each weight keeps a one-byte
// column offset within its segment — 1 B of metadata a weight where a CSR
// column index takes 2 or 4, and a kernel rebases its activation rows once
// per segment. Entries replays a plan's entries in index order; nothing
// outside the package reads the layout. PlanSlab is the one plan builder:
// Begin carves a plan from exactly sized backing arrays, Add takes its
// entries in row-major order (any EntrySink source can hand them over, so a
// plan is built from a tenant's kept weights without a dense matrix or an
// encoding between), and End closes it; the zero PlanSlab counts what those
// calls would carve, so a caller can size a slab by running its build once
// against it. The storage formats compile through the same builder —
// CSR.Compile, CRISPFormat.Compile — only to model Fig. 4 and for tests:
// the CRISP slot walk emits each row's non-zeros in ascending column order
// as well, so the plan of a CRISP-pruned matrix is its CSR plan, and a plan
// accumulates in exactly either storage kernel's order (bit-identical
// results). Fingerprint and QuantPlan.Hash fold the plan's CSR form (row
// starts, absolute columns), not its segment spans. Large SpMMs fan out
// over the persistent kernel worker pool through tensor.JobPool, each call
// handing it a recycled job record (convJob, quantJob, …): the steady-state
// hot path spawns no goroutines and allocates nothing, and MatMulInto
// variants let callers supply recycled output buffers.
//
// # The float kernel
//
// A compiled Plan runs one float kernel at every batch width (plan.go):
// rowRange walks each row's segment spans once, in storage order, with a
// full-batch-width AXPY per entry (four entries unrolled), over rows fanned
// out to the worker pool. The int8 kernel (QuantPlan) is the scalar SWAR
// walk at every batch width.
//
// # Bit-exactness contract
//
// A plan's output is bit-identical to the storage-format kernel it was
// compiled from (those kernels, the oracles, live in spmm_ref_test.go): for
// each output element, floating-point products are added
// in ascending span (storage) order. Unrolling and parallel fan-out may
// change which order output *elements* are produced in, but never the
// order of additions *within* an element. The conformance harness
// (conformance_test.go) proves MatMul and MatMulInto against the CSR row
// walk and the CRISP slot walk, whose loops share none of the plan kernel's,
// across a geometry/batch grid, and FuzzPlanMatMul replays the same
// differential check under fuzzer-chosen shapes, sparsity and values. A
// new kernel joins by being driven from checkAgainstStorage.
package format
