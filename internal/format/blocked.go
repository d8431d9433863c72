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
	blockedJobs.Run((p.Rows+rowTile-1)/rowTile, p.NNZ()*n, blockedJob{p: p, b: b, out: out, n: n, rowTile: rowTile})
}

// blockedJob is matmulBlocked's fan-out record; its rows are row chunks.
type blockedJob struct {
	tensor.Join
	p          *Plan
	b, out     *tensor.Tensor
	n, rowTile int
}

var blockedJobs tensor.JobPool[blockedJob, *blockedJob]

// Rows implements tensor.RowJob: it executes row chunks [c0, c1).
func (j *blockedJob) Rows(c0, c1 int) {
	for c := c0; c < c1; c++ {
		j.p.blockedTile(j.b, j.out, j.n, c*j.rowTile, min((c+1)*j.rowTile, j.p.Rows))
	}
}

// blockedTile computes output rows [row0, row1) with column-panel
// microkernels — eight columns per span pass, then four, then the ragged
// tail — selecting the uniform-span fast path when the plan's build proved
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

// blockedTileUniform is the uniform-span fast path: when every row stores
// exactly `uniform` entries (an N:M + block layout with no zero among its
// kept weights, or a dense matrix), row spans are addressed arithmetically —
// no RowPtr loads — and every panel pass runs the same fixed trip count.
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
