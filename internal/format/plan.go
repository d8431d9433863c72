package format

import (
	"fmt"

	"repro/internal/tensor"
)

// Plan is a compiled sparse-execution plan: the flat, kernel-ready form of
// an encoding. Where the storage formats keep the structure the hardware
// metadata model needs (block-column indices, per-slot intra-group offsets,
// padding slots), the plan keeps only what the SpMM inner loop needs:
//
//   - padding/zero slots are dropped entirely (no v == 0 branch),
//   - per-slot offsets are resolved to absolute uint16 column indices
//     (no block-grid arithmetic in the inner loop; a matrix is at most
//     MaxCols wide),
//   - per-output-row slot ranges are precomputed (RowPtr), so each row is a
//     straight gather-multiply-accumulate over a contiguous Col/Val span.
//
// Compiling preserves the source kernel's per-row accumulation order
// exactly: for every output element the same non-zero products are added in
// the same order as the slot-walking (CRISP) or row-walking (CSR) kernel,
// so plan results are bit-identical to the storage-format kernels. The
// plan is immutable after compilation and safe for concurrent MatMul use.
type Plan struct {
	Rows, Cols int
	// RowPtr[r] .. RowPtr[r+1] is row r's span in Col/Val (len Rows+1).
	RowPtr []int32
	// Col holds absolute column indices, Val the matching non-zero values.
	Col []uint16
	Val []float64

	// uniform, when positive, records that every row span holds exactly
	// this many entries — proved by CRISPFormat.Compile from the N:M +
	// block metadata when no padding slot survives — enabling the
	// fixed-trip-count fast path (blockedTileUniform).
	uniform int
}

// NNZ returns the number of stored (all non-zero) entries.
func (p *Plan) NNZ() int { return len(p.Col) }

// SizeBytes reports the heap bytes the plan's slice payloads occupy (RowPtr,
// Col and Val). The fixed struct header is excluded as negligible.
func (p *Plan) SizeBytes() int64 {
	return int64(len(p.RowPtr))*4 + int64(len(p.Col))*2 + int64(len(p.Val))*8
}

// MaxCols is the widest matrix a plan holds: its column indices are uint16.
// No model here comes near it: the widest trainable matrix is 288·width
// columns (resnet-s and vgg-s, 576 at the experiments' width 2), and the
// widest paper-scale layer shape, VGG-16's fc6, is 25 088.
const MaxCols = 1 << 16

// checkCols panics when a matrix is too wide for uint16 column indices.
func checkCols(cols int) {
	if cols > MaxCols {
		panic(fmt.Sprintf("format: %d columns, a plan holds at most %d", cols, MaxCols))
	}
}

// UniformSpan returns the proved per-row entry count when every row span
// holds the same number of entries (the CRISP fixed-trip-count fast path),
// and 0 for ragged plans.
func (p *Plan) UniformSpan() int { return p.uniform }

// Compile compiles the encoding into an execution plan. CSR is already
// row-pointer + column-index + value, so the plan is a direct image of the
// encoding. It panics on a matrix wider than MaxCols.
func (c *CSR) Compile() *Plan {
	checkCols(c.Cols)
	p := &Plan{
		Rows:   c.Rows,
		Cols:   c.Cols,
		RowPtr: make([]int32, len(c.RowPtr)),
		Col:    make([]uint16, len(c.ColIdx)),
		Val:    make([]float64, len(c.Val)),
	}
	copy(p.RowPtr, c.RowPtr)
	for i, cc := range c.ColIdx {
		p.Col[i] = uint16(cc)
	}
	copy(p.Val, c.Val)
	return p
}

// PlanSlab is the backing memory of a set of plans whose sizes are known
// before the first is built: one []Plan and one RowPtr, Col and Val array,
// which the CompileIn entry points carve front to back. Every carved slice is
// capped at its length, so no plan can grow into its neighbour.
type PlanSlab struct {
	plans  []Plan
	rowPtr []int32
	col    []uint16
	val    []float64
	// np, nr and nz are the next plan header, row pointer and entry to carve.
	np, nr, nz int
}

// NewPlanSlab returns a slab sized exactly for the given number of plans,
// rows (summed over the plans) and stored entries (summed likewise).
func NewPlanSlab(plans, rows, nnz int) PlanSlab {
	var s PlanSlab
	s.Reset(plans, rows, nnz)
	return s
}

// Reset re-sizes s exactly for a new set of plans and carves them from the
// start of its arrays again, reusing each array that is large enough: a plan
// carved after Reset may overwrite any plan carved before it.
func (s *PlanSlab) Reset(plans, rows, nnz int) {
	s.plans = resize(s.plans, plans)
	s.rowPtr = resize(s.rowPtr, rows+plans)
	s.col = resize(s.col, nnz)
	s.val = resize(s.val, nnz)
	s.np, s.nr, s.nz = 0, 0, 0
}

// resize returns v at length n: v's own array when it holds n, a new one of
// exactly n when it does not.
func resize[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// Left reports what has not been carved yet: plan headers, row pointers and
// entries.
func (s *PlanSlab) Left() (plans, rowPtrs, nnz int) {
	return len(s.plans) - s.np, len(s.rowPtr) - s.nr, len(s.col) - s.nz
}

// carve takes the next plan of rows × cols with nnz entries from s, its
// RowPtr zeroed. A slab too short for it is an error, and carves nothing.
func (s *PlanSlab) carve(rows, cols, nnz int) (*Plan, error) {
	checkCols(cols)
	plans, rowPtrs, left := s.Left()
	if plans == 0 || rowPtrs < rows+1 || left < nnz {
		return nil, fmt.Errorf("format: plan slab has %d plans, %d row pointers and %d entries left, a %d-row plan of %d entries needs 1, %d and %d",
			plans, rowPtrs, left, rows, nnz, rows+1, nnz)
	}
	p := &s.plans[s.np]
	*p = Plan{
		Rows: rows, Cols: cols,
		RowPtr: s.rowPtr[s.nr : s.nr+rows+1 : s.nr+rows+1],
		Col:    s.col[s.nz : s.nz+nnz : s.nz+nnz],
		Val:    s.val[s.nz : s.nz+nnz : s.nz+nnz],
	}
	s.np, s.nr, s.nz = s.np+1, s.nr+rows+1, s.nz+nnz
	clear(p.RowPtr)
	return p, nil
}

// CompileCSRIn compiles the non-zeros of the dense matrix m, row by row in
// ascending column order, into a plan carved from s: the plan
// EncodeCSR(m).Compile() returns, without the CSR encoding between. It
// panics on a matrix wider than MaxCols.
func CompileCSRIn(m *tensor.Tensor, s *PlanSlab) (*Plan, error) {
	rows, cols := checkMatrix(m)
	p, err := s.carve(rows, cols, m.CountNonZero())
	if err != nil {
		return nil, err
	}
	i := 0
	for r := 0; r < rows; r++ {
		for cc, v := range m.Data[r*cols : (r+1)*cols] {
			if v != 0 {
				p.Col[i] = uint16(cc)
				p.Val[i] = v
				i++
			}
		}
		p.RowPtr[r+1] = int32(i)
	}
	return p, nil
}

// Compile compiles the encoding into an execution plan: the slot walk of
// CRISPFormat.MatMul is replayed once at compile time, emitting one
// (column, value) pair per non-zero slot into the owning output row.
// Padding slots (value 0) disappear; intra-group offsets are resolved
// against their block bounds to absolute column indices. Within each output
// row the emitted order is exactly the slot-walk order (kept blocks in
// stored order, groups left-to-right, slots in stored order), so MatMul over
// the plan accumulates bit-identically to the slot-walking kernel. It panics
// on a matrix wider than MaxCols.
func (e *CRISPFormat) Compile() *Plan {
	s := NewPlanSlab(1, e.Rows, e.nnz())
	p, err := e.CompileIn(&s)
	if err != nil {
		panic(err) // unreachable: s is sized for exactly this plan
	}
	return p
}

// CompileIn is Compile with the plan carved from s. Nothing carved aliases
// e, so e may be re-encoded at once.
func (e *CRISPFormat) CompileIn(s *PlanSlab) (*Plan, error) {
	p, err := s.carve(e.Rows, e.Cols, e.nnz())
	if err != nil {
		return nil, err
	}

	// Pass 1: count non-zero slots per output row, then prefix-sum so that
	// RowPtr[r] is where row r's span starts.
	e.walk(func(r int, _ uint16, _ float64) { p.RowPtr[r+1]++ })
	for r := 0; r < e.Rows; r++ {
		p.RowPtr[r+1] += p.RowPtr[r]
	}

	// Pass 2: fill with RowPtr[r] itself as row r's moving cursor — it ends
	// on row r+1's start, so shifting the array up one entry restores it.
	e.walk(func(r int, col uint16, v float64) {
		p.Col[p.RowPtr[r]] = col
		p.Val[p.RowPtr[r]] = v
		p.RowPtr[r]++
	})
	copy(p.RowPtr[1:], p.RowPtr[:e.Rows])
	p.RowPtr[0] = 0

	// The N:M + block-column layout stores the same slot count for every
	// row of a kept block; when no padding slot survives the compile (no
	// dropped zeros), every row span is therefore the same width. Proving
	// that here lets the blocked kernels run the fixed-trip-count,
	// RowPtr-free fast path (blockedTileUniform). One O(Rows) scan over
	// the already-built RowPtr is the cheapest sound check — it also
	// catches layouts the grid arithmetic alone couldn't prove.
	if e.Rows > 0 {
		u := int(p.RowPtr[1])
		for r := 1; r < e.Rows; r++ {
			if int(p.RowPtr[r+1])-int(p.RowPtr[r]) != u {
				u = 0
				break
			}
		}
		if u > 0 {
			p.uniform = u
		}
	}
	return p, nil
}

// nnz counts the non-zero slots: the entries a compiled plan keeps.
func (e *CRISPFormat) nnz() int {
	n := 0
	for _, v := range e.Val {
		if v != 0 {
			n++
		}
	}
	return n
}

// walk replays the slot walk of CRISPFormat.MatMul, visiting every non-zero
// slot with its output row and absolute column.
func (e *CRISPFormat) walk(visit func(r int, col uint16, v float64)) {
	g := e.grid()
	si := 0
	for br := 0; br < g.GridRows(); br++ {
		for k := 0; k < e.KeptPerRow; k++ {
			bc := int(e.BlockCols[br*e.KeptPerRow+k])
			r0, r1, c0, c1 := g.Bounds(br, bc)
			for r := r0; r < r1; r++ {
				for g0 := c0; g0 < c1; g0 += e.NM.M {
					for s := 0; s < e.NM.N; s++ {
						if v := e.Val[si]; v != 0 {
							visit(r, uint16(g0+int(e.Offsets[si])), v)
						}
						si++
					}
				}
			}
		}
	}
}

// MatMul computes Plan · B for a dense Cols×n matrix B into a new tensor.
func (p *Plan) MatMul(b *tensor.Tensor) *tensor.Tensor {
	_, n := checkSpMM(b, p.Cols)
	out := tensor.New(p.Rows, n)
	p.matmul(b, out, n)
	return out
}

// MatMulInto computes Plan · B into out, which must be a rank-2 Rows×n
// tensor; its previous contents are overwritten (callers may hand the plan
// an uninitialized arena buffer). Returns out.
func (p *Plan) MatMulInto(b, out *tensor.Tensor) *tensor.Tensor {
	_, n := checkSpMM(b, p.Cols)
	if len(out.Shape) != 2 || out.Shape[0] != p.Rows || out.Shape[1] != n {
		panic(fmt.Sprintf("format: MatMulInto output %v, want [%d %d]", out.Shape, p.Rows, n))
	}
	p.matmul(b, out, n)
	return out
}

// matmul is the plan kernel, and the one place a kernel is chosen: per
// call, from what the call can observe. blockedAuto sends cache-resident
// activations of one panel pass (4 ≤ n ≤ 8) to the register-blocked path
// (blocked.go); everything else — single samples, wide batches,
// streaming-sized activations — runs the scalar reference kernel, whose
// contiguous full-width row walks win there (see blockedActBudget). Both
// produce bit-identical output (see microkernel.go).
func (p *Plan) matmul(b, out *tensor.Tensor, n int) {
	if blockedAuto(p.Cols, n) {
		p.matmulBlocked(b, out, n, defaultRowTile)
		return
	}
	p.matmulScalar(b, out, n)
}

// matmulScalar is the scalar reference kernel's driver. The single-sample
// path calls rowRange directly — routing it through a closure would
// heap-allocate the closure on every SpMM call, because the worker pool's
// task channel makes it escape — and only batch-scale problems pay for the
// fan-out wrapper.
func (p *Plan) matmulScalar(b, out *tensor.Tensor, n int) {
	// Branches (not a method value) keep the serial path allocation-free:
	// a bound method value would escape through the pool's task channel.
	if p.NNZ()*n < spmmParallelThreshold || p.Rows < 2 {
		p.rowRange(b, out, n, 0, p.Rows)
		return
	}
	parallelRows(p.Rows, p.NNZ()*n, func(row0, row1 int) {
		p.rowRange(b, out, n, row0, row1)
	})
}

// rowRange computes output rows [row0, row1). Each row is zeroed and
// accumulated by exactly one worker, walking its Col/Val span in storage
// order — the same per-element addition sequence as the source encoding's
// kernel. Rows are unrolled four entries at a time purely to cut dst
// loads/stores; the per-element additions stay in the same order
// ((((d+v0*s0)+v1*s1)+...)), so results remain bit-identical to the
// one-entry-at-a-time loop.
func (p *Plan) rowRange(b, out *tensor.Tensor, n, row0, row1 int) {
	bd := b.Data
	for r := row0; r < row1; r++ {
		dst := out.Data[r*n : (r+1)*n]
		clear(dst)
		i := int(p.RowPtr[r])
		end := int(p.RowPtr[r+1])
		for ; i+3 < end; i += 4 {
			v0, v1, v2, v3 := p.Val[i], p.Val[i+1], p.Val[i+2], p.Val[i+3]
			s0 := bd[int(p.Col[i])*n : int(p.Col[i])*n+n]
			s1 := bd[int(p.Col[i+1])*n : int(p.Col[i+1])*n+n]
			s2 := bd[int(p.Col[i+2])*n : int(p.Col[i+2])*n+n]
			s3 := bd[int(p.Col[i+3])*n : int(p.Col[i+3])*n+n]
			for j, b0 := range s0 {
				a := dst[j] + v0*b0
				a += v1 * s1[j]
				a += v2 * s2[j]
				a += v3 * s3[j]
				dst[j] = a
			}
		}
		for ; i < end; i++ {
			v := p.Val[i]
			src := bd[int(p.Col[i])*n : (int(p.Col[i])+1)*n]
			for j, bv := range src {
				dst[j] += v * bv
			}
		}
	}
}
