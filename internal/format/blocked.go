package format

import (
	"repro/internal/tensor"
)

// defaultRowTile is the row-chunk height the blocked path hands the worker
// pool: two cache blocks of output rows, derived from the one cache-block
// constant shared with tensor.TransposeInto (tensor.CacheBlockF64). A plan
// with fewer than two chunks runs serially.
const defaultRowTile = 2 * tensor.CacheBlockF64

// panelMin is the batch width below which the blocked path does not apply:
// with fewer than four activation columns there is no panel to register-
// block, and the scalar kernel's single pass over the span is optimal.
const panelMin = 4

// blockedActBudget is the activation-matrix byte size up to which the
// panel kernels' column gathers stay cache-resident (≈ one L2) and the
// blocked path wins by cutting dst and accumulator traffic. Above it the
// gathers pay L2-miss/TLB latency on every span entry while the scalar
// kernel's full-width row walks ride the hardware prefetcher at stream
// bandwidth — measured 2× FASTER than panel gathers at conv-sized
// activations (Cols×n ≥ 4 MiB) on the reference machine.
// 1 MiB = 32 × CacheBlockF64² float64 blocks (tensor.CacheBlockF64).
const blockedActBudget = 1 << 20

// blockedPanelWidth is the widest column panel the microkernels compute in
// one pass (spanPanel8's eight register accumulators). Batches up to this
// width walk each row span exactly once with the destination held in
// registers — the regime where the blocked path beats the scalar kernel.
// Wider batches would re-walk every span once per extra panel, and the
// repeated Col/Val streams measured slower than the scalar kernel's single
// pass from n≈12 on the reference machine, so dispatch stops at one pass.
const blockedPanelWidth = 8

// blockedAuto is the one kernel decider: it reports whether a Cols×n
// float64 activation takes the blocked path. The batch must fill a panel
// (panelMin) yet fit a single panel pass (blockedPanelWidth), and the
// activation must be cache-resident (blockedActBudget); everything else
// runs the scalar kernel.
func blockedAuto(cols, n int) bool {
	return n >= panelMin && n <= blockedPanelWidth && cols*n*8 <= blockedActBudget
}

// matmulBlocked is the register-blocked float kernel driver: output rows
// are cut into chunks of rowTile rows (production passes defaultRowTile;
// the conformance and fuzz harnesses pass ragged sizes) that feed the
// persistent worker pool chunk by chunk. Every chunk owns its output rows
// exclusively, and each output element is produced by one in-order walk of
// its row span, so results are bit-identical to the scalar kernel for any
// chunk size and any batch width.
func (p *Plan) matmulBlocked(b, out *tensor.Tensor, n, rowTile int) {
	chunks := (p.Rows + rowTile - 1) / rowTile
	// The serial path calls runChunks directly rather than sharing a
	// closure with the parallel branch: a shared closure would escape
	// through the pool's task channel and cost sub-threshold calls a heap
	// allocation (see matmulScalar).
	if p.NNZ()*n < spmmParallelThreshold || chunks < 2 {
		p.runChunks(b, out, n, rowTile, 0, chunks)
		return
	}
	parallelRows(chunks, p.NNZ()*n, func(c0, c1 int) {
		p.runChunks(b, out, n, rowTile, c0, c1)
	})
}

// runChunks executes row chunks [c0, c1).
func (p *Plan) runChunks(b, out *tensor.Tensor, n, rowTile, c0, c1 int) {
	for c := c0; c < c1; c++ {
		p.blockedTile(b, out, n, c*rowTile, min((c+1)*rowTile, p.Rows))
	}
}

// blockedTile computes output rows [row0, row1) with column-panel
// microkernels — eight columns per span pass, then four, then the ragged
// tail — selecting the CRISP uniform-span fast path when Compile proved
// one.
func (p *Plan) blockedTile(b, out *tensor.Tensor, n, row0, row1 int) {
	if p.uniform > 0 {
		p.blockedTileUniform(b, out, n, row0, row1)
		return
	}
	bd := b.Data
	for r := row0; r < row1; r++ {
		i0, i1 := int(p.RowPtr[r]), int(p.RowPtr[r+1])
		dst := out.Data[r*n : (r+1)*n]
		j := 0
		for ; j+8 <= n; j += 8 {
			spanPanel8(dst, bd, p.Col, p.Val, i0, i1, j, n)
		}
		for ; j+4 <= n; j += 4 {
			spanPanel4(dst, bd, p.Col, p.Val, i0, i1, j, n)
		}
		if j < n {
			spanPanelTail(dst, bd, p.Col, p.Val, i0, i1, j, n)
		}
	}
}

// blockedTileUniform is the CRISP-structure-specialized fast path: when the
// encoding's metadata proved uniform span widths (N:M + block layout with
// no padding slots → every row stores exactly `uniform` entries), row spans
// are addressed arithmetically — no RowPtr loads — and every panel pass
// runs the same fixed trip count.
func (p *Plan) blockedTileUniform(b, out *tensor.Tensor, n, row0, row1 int) {
	bd := b.Data
	u := p.uniform
	i0 := row0 * u
	for r := row0; r < row1; r++ {
		i1 := i0 + u
		dst := out.Data[r*n : (r+1)*n]
		j := 0
		for ; j+8 <= n; j += 8 {
			spanPanel8(dst, bd, p.Col, p.Val, i0, i1, j, n)
		}
		for ; j+4 <= n; j += 4 {
			spanPanel4(dst, bd, p.Col, p.Val, i0, i1, j, n)
		}
		if j < n {
			spanPanelTail(dst, bd, p.Col, p.Val, i0, i1, j, n)
		}
		i0 = i1
	}
}
