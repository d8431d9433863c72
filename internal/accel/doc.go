// doc.go documents the simulator's cost equations, this reproduction's
// substitute for the paper's Sparseloop + CACTI evaluation.
//
// Every architecture evaluates one layer as an implicit GEMM with
// M = output channels, K = reduction (Cin·kh·kw), N = output positions.
//
//	cycles = max(compute, memory, smem) + overhead + startup
//	compute = effectiveMACs / (MACsPerCycle · utilization)
//	memory  = DRAM bytes / DRAMBytesPerCycle
//	smem    = SMEM bytes / SMEMBytesPerCycle
//	energy  = Σ level bytes · pJ/byte + MACs · pJ/MAC + arch overhead ops
//
// Architecture-specific terms:
//
//   - dense: every MAC executes; weights m·k, activations k·n, outputs m·n
//     all move. Utilization 0.85 (tiling edge effects).
//
//   - nvidia-stc: weight 2:4 only. Patterns with N ≤ 2, M = 4 store at 50%
//     density — 1:4 pads a zero slot per group, so the slot count (and
//     therefore time and compute energy) is identical to 2:4: the ≤2×
//     ceiling and poor-utilization behaviour the paper reports. 3:4 cannot
//     be expressed and runs dense. No block support → full activation
//     traffic.
//
//   - dstc: compute scales with weightDensity · actDensity (dual-side), but
//     (a) gather/scatter throughput is capped (GatherPerCycle), (b) the
//     outer-product SIMD lanes starve when actDensity·N < VectorLanes —
//     exactly the late-layer (N = 49) data-movement wall its own paper
//     describes, and (c) m·n partial sums beyond half the SMEM round-trip
//     to DRAM. Bitmap metadata moves with both operand tensors.
//
//   - crisp-stc: compute scales with (K'/K)·(N/M) at 0.95 utilization
//     (uniform blocks per row ⇒ balanced lanes). Activations of pruned
//     block columns are never fetched (the K'/K factor on k·n traffic —
//     the dominant saving). Metadata: ⌈log2 M⌉ bits per kept slot plus one
//     block-column index per kept block. Each kept block costs
//     BlockOverheadCycles of index/address generation, so small blocks
//     (16×16) pay more overhead than 64×64 — the paper's "block size 64
//     performs best" effect. MUX energy per slot models the activation
//     selection unit.
package accel
