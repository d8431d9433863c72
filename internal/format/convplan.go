package format

import (
	"fmt"

	"repro/internal/tensor"
)

// Implicit-im2col convolution: the conv-layer counterpart of the float
// plan kernel. The classic lowering materializes im2col(x) — a [InC·KH·KW,
// N·OH·OW] matrix that duplicates every input pixel KH·KW times — and then
// runs the generic SpMM over it. On conv-sized batches that write
// amplification dominates the whole forward pass: the im2col matrix is
// KH·KW× the input and far outgrows the cache, so the kernel's activation
// walks stream from DRAM. A ConvPlan fuses the two: each stored weight
// entry reads its (channel, kernel-position) tap straight from the input
// image, so the activation working set is the image itself — KH·KW×
// smaller, cache-resident — and the im2col matrix is never built.
//
// The fusion is only profitable because everything data-dependent is
// hoisted out of the per-sample loops. Decoding a plan column index into
// (channel, kh, kw) with integer divides costs more, done per entry per
// sample, than the multiply-accumulates it feeds (the first cut of this
// kernel measured ~2× slower than the lowering for exactly that reason).
// The kernel decodes each stored entry's column — its segment's first
// column plus its one-byte offset — once per call instead, by a
// multiply-shift: with magic = ⌊2³²/KH·KW⌋+1, channel = col·magic>>32 and
// kernel position = col − channel·KH·KW. That quotient is exact whenever
// col·KH·KW < 2³², which MaxCols guarantees: KH·KW divides Cols, so both
// col and KH·KW are at most Cols ≤ MaxCols = 2¹⁶, and col < Cols. The
// plan keeps two words (KH·KW and magic) where a per-column tap table
// would keep 8 bytes a column. The per-geometry border clipping (which
// output rows/columns keep a given kernel position inside the
// image) collapses into a KH·KW-entry table computed once per call, in
// scratch its caller draws (ClipFloats). What remains per (entry, sample)
// is a handful of adds and one multiply to form the slice bases, then pure
// contiguous AXPYs.
//
// Accumulation-order contract: for every output element the products are
// added in ascending span order — exactly the order Plan.MatMulInto's scalar
// kernel uses over an im2col matrix, so results match the lowered path
// element for element (|difference| = 0). The one representational
// exception: taps that fall in the zero padding are skipped here but
// contribute an explicit ±0.0 product in the lowered path, so an output
// whose every contribution is a signed zero can differ in the sign of its
// zero. Magnitudes, and therefore every downstream computation, are
// unaffected.

// ConvPlan is a Plan specialized for implicit-im2col convolution with a
// fixed kernel shape. It is immutable after CompileConv, and safe for
// concurrent MatMulBatchLastInto use.
type ConvPlan struct {
	p                   *Plan
	kh, kw, stride, pad int
	inC                 int
	// khw is KH·KW and magic ⌊2³²/khw⌋+1, the multiply-shift that splits a
	// column into (channel, kernel position); a uint64 because khw = 1
	// overflows a uint32.
	khw   int
	magic uint64
}

// convState is one call's input geometry and clip table: for each kernel
// position (kh, kw), the width and height of the output block [oy0, oy1) ×
// [ox0, ox1) whose tap lands inside the image, the tap's input offset at
// (oy0, ox0) within its channel, and the block's output offset — integers,
// held exactly as floats because the table is float scratch. Taps outside
// the block read zero padding and contribute nothing.
type convState struct {
	inH, inW int
	oh, ow   int
	clips    []float64
}

// CompileConv specializes the plan for convolution with the given kernel
// shape, into cp, which it returns: a compile carves every conv's from one
// slab. The plan's Cols must equal InC·KH·KW for some whole channel count.
func (p *Plan) CompileConv(cp *ConvPlan, kh, kw, stride, pad int) *ConvPlan {
	if kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("format: CompileConv bad kernel %dx%d stride %d pad %d", kh, kw, stride, pad))
	}
	khw := kh * kw
	if p.Cols%khw != 0 {
		panic(fmt.Sprintf("format: CompileConv plan cols %d not divisible by KH*KW = %d", p.Cols, khw))
	}
	*cp = ConvPlan{
		p: p, kh: kh, kw: kw, stride: stride, pad: pad,
		inC: p.Cols / khw,
		khw: khw, magic: 1<<32/uint64(khw) + 1,
	}
	return cp
}

// SizeBytes reports the bytes the conv specialization is charged on top of
// its Plan: 20 per kernel position, the per-geometry clip table it once
// cached. The table is now the caller's scratch (ClipFloats); the charge
// stays until scratch itself is charged. Struct headers are excluded as
// negligible, as in Plan.SizeBytes.
func (cp *ConvPlan) SizeBytes() int64 {
	return int64(cp.khw) * 20
}

// ClipFloats is the scratch MatMulBatchLastInto takes: the clip table, four
// floats per kernel position.
func (cp *ConvPlan) ClipFloats() int { return 4 * cp.khw }

// tap splits a plan column into its input channel and its flattened kernel
// position kh·KW+kw (the index into the per-geometry clip table) by the
// multiply-shift described above.
func (cp *ConvPlan) tap(col int) (c, kk int) {
	c = int(uint64(col) * cp.magic >> 32)
	return c, col - c*cp.khw
}

// matches reports whether g matches the compiled kernel shape.
func (cp *ConvPlan) matches(g tensor.ConvGeom) bool {
	return g.KH == cp.kh && g.KW == cp.kw && g.Stride == cp.stride && g.Pad == cp.pad && g.InC == cp.inC
}

// clipRange returns the output range [o0, o1) along one axis whose tap
// index o·Stride + k − Pad lands inside [0, in).
func clipRange(k, pad, stride, in, outDim int) (int, int) {
	o0 := 0
	if pad > k {
		o0 = (pad - k + stride - 1) / stride
	}
	o1 := (in + pad - k + stride - 1) / stride
	if o1 > outDim {
		o1 = outDim
	}
	if o1 < o0 {
		o1 = o0
	}
	return o0, o1
}

// stateFor writes the clip table for the input geometry into clips.
func (cp *ConvPlan) stateFor(g tensor.ConvGeom, clips []float64) convState {
	st := convState{inH: g.InH, inW: g.InW, oh: g.OutH(), ow: g.OutW(), clips: clips[:cp.ClipFloats()]}
	for kh := 0; kh < cp.kh; kh++ {
		for kw := 0; kw < cp.kw; kw++ {
			oy0, oy1 := clipRange(kh, cp.pad, cp.stride, g.InH, st.oh)
			ox0, ox1 := clipRange(kw, cp.pad, cp.stride, g.InW, st.ow)
			iy0, ix0 := oy0*cp.stride+kh-cp.pad, ox0*cp.stride+kw-cp.pad
			cl := st.clips[4*(kh*cp.kw+kw):]
			cl[0], cl[1], cl[2], cl[3] = float64(ox1-ox0), float64(oy1-oy0), float64(iy0*g.InW+ix0), float64(oy0*st.ow+ox0)
		}
	}
	return st
}

// MatMulBatchLastInto is the batch-last form of the fused convolution: xT
// is the transposed input [InC·InH·InW, batch] (sample index innermost)
// and out is filled as [Rows·OH·OW, batch]. Batch-last is the layout the
// inference engine runs, because it turns every tap's contribution into a
// contiguous w·batch-element AXPY: in sample-major layout a tap touches w
// consecutive pixels of one sample (w ≤ OW, single digits on late-stage
// feature maps), so slice and loop overhead swamp the multiply-adds;
// batch-last fuses the clipped pixel run and the batch dimension into one
// run, amortizing that overhead across an order of magnitude more work.
// The per-element accumulation order is the lowering's — ascending span
// order, entries in the outermost loop — so transposing the result back to
// sample-major reproduces Plan.MatMulInto over an im2col matrix.
//
// clips is ClipFloats floats of scratch with any contents.
func (cp *ConvPlan) MatMulBatchLastInto(xT *tensor.Tensor, g tensor.ConvGeom, batch int, out *tensor.Tensor, clips []float64) *tensor.Tensor {
	if !cp.matches(g) {
		panic(fmt.Sprintf("format: ConvPlan compiled for %dx%d stride %d pad %d inC %d, got %+v",
			cp.kh, cp.kw, cp.stride, cp.pad, cp.inC, g))
	}
	if len(xT.Shape) != 2 || xT.Shape[0] != g.InC*g.InH*g.InW || xT.Shape[1] != batch {
		panic(fmt.Sprintf("format: ConvPlan batch-last input %v, want [%d %d]", xT.Shape, g.InC*g.InH*g.InW, batch))
	}
	st := cp.stateFor(g, clips)
	p := cp.p
	ohow := st.oh * st.ow
	if len(out.Shape) != 2 || out.Shape[0] != p.Rows*ohow || out.Shape[1] != batch {
		panic(fmt.Sprintf("format: ConvPlan batch-last output %v, want [%d %d]", out.Shape, p.Rows*ohow, batch))
	}
	convJobs.Run(p.Rows, p.NNZ()*batch*ohow, convJob{cp: cp, xd: xT.Data, st: st, batch: batch, out: out.Data})
	return out
}

// convJob is MatMulBatchLastInto's fan-out record.
type convJob struct {
	tensor.Join
	cp      *ConvPlan
	xd, out []float64
	st      convState
	batch   int
}

var convJobs tensor.JobPool[convJob, *convJob]

// Rows implements tensor.RowJob.
func (j *convJob) Rows(r0, r1 int) { j.cp.convRowsBatchLast(j.xd, &j.st, j.batch, j.out, r0, r1) }

// convRowsBatchLast computes output rows [row0, row1) in batch-last
// layout. Entries stay outermost, segment by segment in storage order (the
// accumulation-order contract), each column decoded from its segment and
// offset; the inner AXPY covers a whole clipped pixel run across every
// sample at once.
func (cp *ConvPlan) convRowsBatchLast(xd []float64, st *convState, batch int, out []float64, row0, row1 int) {
	p := cp.p
	chanSize := st.inH * st.inW
	ohow := st.oh * st.ow
	ow := st.ow
	rowStep := cp.stride * st.inW * batch
	s := cp.stride
	ns := segs(p.Cols)
	for r := row0; r < row1; r++ {
		dst := out[r*ohow*batch : (r+1)*ohow*batch]
		clear(dst)
		for seg := r * ns; seg < (r+1)*ns; seg++ {
			at := (seg - r*ns) * SegCols
			for i := int(p.RowPtr[seg]); i < int(p.RowPtr[seg+1]); i++ {
				c, kk := cp.tap(at + int(p.Col[i]))
				cl := st.clips[4*kk : 4*kk+4]
				w, rows := int(cl[0]), int(cl[1])
				if w <= 0 || rows <= 0 {
					continue
				}
				v := p.Val[i]
				so := (c*chanSize + int(cl[2])) * batch
				do := int(cl[3]) * batch
				if s == 1 {
					// Stride-1 taps read w·batch consecutive values: one long
					// AXPY per clipped output row. Equal-length reslices let
					// the compiler drop the per-element bounds checks.
					wb := w * batch
					for k := 0; k < rows; k++ {
						xr := xd[so : so+wb]
						d := dst[do : do+wb]
						for j, xv := range xr {
							d[j] += v * xv
						}
						so += rowStep
						do += ow * batch
					}
				} else {
					// Strided taps are contiguous per pixel (batch elements);
					// step s pixels between output columns.
					sb := s * batch
					for k := 0; k < rows; k++ {
						soX := so
						for ox := 0; ox < w; ox++ {
							xr := xd[soX : soX+batch]
							d := dst[do+ox*batch:]
							d = d[:batch]
							for j, xv := range xr {
								d[j] += v * xv
							}
							soX += sb
						}
						so += rowStep
						do += ow * batch
					}
				}
			}
		}
	}
}
