package format

import (
	"fmt"

	"repro/internal/tensor"
)

// Plan is a compiled sparse-execution plan: the flat, kernel-ready CSR image
// of a matrix's non-zeros. Where the storage formats keep the structure the
// hardware metadata model needs (block-column indices, per-slot intra-group
// offsets, padding slots), the plan keeps only what the SpMM inner loop
// needs:
//
//   - zeros are dropped entirely (no v == 0 branch),
//   - columns are absolute uint16 indices (no block-grid arithmetic in the
//     inner loop; a matrix is at most MaxCols wide),
//   - per-output-row entry ranges are precomputed (RowPtr), so each row is a
//     straight gather-multiply-accumulate over a contiguous Col/Val span.
//
// Each row's entries are in ascending column order, which is the order the
// slot-walking (CRISP) and row-walking (CSR) kernels add a row's products
// in, so plan results are bit-identical to the storage-format kernels. The
// plan is immutable once built and safe for concurrent MatMul use.
type Plan struct {
	Rows, Cols int
	// RowPtr[r] .. RowPtr[r+1] is row r's span in Col/Val (len Rows+1).
	RowPtr []int32
	// Col holds absolute column indices, Val the matching non-zero values.
	Col []uint16
	Val []float64
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

// Compile compiles the encoding into an execution plan. CSR is already
// row-pointer + column-index + value, so the plan is a direct image of the
// encoding. It panics on a matrix wider than MaxCols, and on an encoding
// whose rows do not list their columns in ascending order, which EncodeCSR
// never writes.
func (c *CSR) Compile() *Plan {
	s := NewPlanSlab(1, c.Rows, len(c.Val))
	_ = s.Begin(c.Rows, c.Cols) // the slab has room for exactly this plan
	for r := range c.Rows {
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			s.Add(r*c.Cols+int(c.ColIdx[i]), c.Val[i])
		}
	}
	return s.mustEnd()
}

// EntrySink takes a matrix's entries one call at a time, each with its
// row-major index, in ascending index order. A PlanSlab builds a plan from
// them.
type EntrySink interface {
	Add(i int, v float64)
}

// PlanSlab is the backing memory of a set of plans whose sizes are known
// before the first is built: one []Plan and one RowPtr, Col and Val array,
// carved front to back. It is also the one plan builder: Begin carves the
// next plan's header and row pointers, Add hands it its entries, and End
// closes it at exactly the entries it was handed. Every carved slice is
// capped at its length, so no plan can grow into its neighbour.
//
// The zero PlanSlab carves nothing and counts: it takes the same calls, End
// returns no plan, and Left reports what they would have carved (the most
// between two Rewinds), so NewPlanSlab(s.Left()) holds exactly what the same
// calls build.
type PlanSlab struct {
	plans  []Plan
	rowPtr []int32
	col    []uint16
	val    []float64
	// np, nr and nz are the plan headers, rows and entries carved (counted)
	// so far; top is the most a counting slab counted before a Rewind.
	np, nr, nz int
	top        [3]int
	// cur is the plan being built, since the entry start; last is the index
	// of its latest entry, row that entry's row and rowAt the row's first
	// index, and err the first entry it could not take.
	cur        *Plan
	start      int
	last       int
	row, rowAt int
	err        error
}

// NewPlanSlab returns a slab sized exactly for the given number of plans,
// rows (summed over the plans) and stored entries (summed likewise).
func NewPlanSlab(plans, rows, nnz int) PlanSlab {
	return PlanSlab{
		plans:  make([]Plan, plans),
		rowPtr: make([]int32, rows+plans),
		col:    make([]uint16, nnz),
		val:    make([]float64, nnz),
	}
}

// Rewind carves from the start of s's arrays again: a plan built after it
// may overwrite any plan built before it.
func (s *PlanSlab) Rewind() {
	if s.plans == nil {
		s.top[0], s.top[1], s.top[2] = s.Left()
	}
	s.np, s.nr, s.nz = 0, 0, 0
}

// Left reports what s has not carved yet, in NewPlanSlab's terms: plans, rows
// and entries; for the zero PlanSlab, what it counted.
func (s *PlanSlab) Left() (plans, rows, nnz int) {
	if s.plans == nil {
		return max(s.top[0], s.np), max(s.top[1], s.nr), max(s.top[2], s.nz)
	}
	return len(s.plans) - s.np, len(s.rowPtr) - len(s.plans) - s.nr, len(s.col) - s.nz
}

// Begin starts the next plan, of rows × cols. A slab without a plan header
// or rows rows left is an error, and carves nothing. It panics on a matrix
// wider than MaxCols.
func (s *PlanSlab) Begin(rows, cols int) error {
	checkCols(cols)
	s.start, s.last, s.row, s.rowAt, s.err = s.nz, -1, 0, 0, nil
	if s.plans != nil {
		if plans, left, _ := s.Left(); plans == 0 || left < rows {
			return fmt.Errorf("format: plan slab has %d plans and %d rows left, a %d-row plan needs 1 and %d", plans, left, rows, rows)
		}
		at := s.np + s.nr
		s.cur = &s.plans[s.np]
		*s.cur = Plan{Rows: rows, Cols: cols, RowPtr: s.rowPtr[at : at+rows+1 : at+rows+1]}
		s.cur.RowPtr[0] = 0
	}
	s.np, s.nr = s.np+1, s.nr+rows
	return nil
}

// Add appends the entry at row-major index i (row i / Cols, column
// i % Cols) of value v to the plan Begin started. Entries come in ascending
// index order, so each row's are in ascending column order; an entry out of
// order or out of range, or one past the slab's entries, fails End.
func (s *PlanSlab) Add(i int, v float64) {
	p := s.cur
	switch {
	case s.plans == nil:
		s.nz++
		return
	case s.err != nil:
		return
	case i <= s.last || i >= p.Rows*p.Cols:
		s.err = fmt.Errorf("format: plan entry %d after %d in a %d×%d plan", i, s.last, p.Rows, p.Cols)
		return
	case s.nz == len(s.col):
		s.err = fmt.Errorf("format: plan slab has no entries left for a %d-row plan's entry %d", p.Rows, s.nz-s.start)
		return
	}
	s.last = i
	for i >= s.rowAt+p.Cols { // i is past the current row: close it
		s.row, s.rowAt = s.row+1, s.rowAt+p.Cols
		p.RowPtr[s.row] = int32(s.nz - s.start)
	}
	s.col[s.nz], s.val[s.nz] = uint16(i-s.rowAt), v
	s.nz++
}

// End closes the plan Begin started and returns it (none while counting).
// After an entry Add could not take it returns that error and gives the
// plan's memory back to the slab.
func (s *PlanSlab) End() (*Plan, error) {
	p := s.cur
	s.cur = nil
	switch {
	case s.plans == nil:
		return nil, nil
	case s.err != nil:
		s.np, s.nr, s.nz = s.np-1, s.nr-p.Rows, s.start
		return nil, s.err
	}
	p.Col = s.col[s.start:s.nz:s.nz]
	p.Val = s.val[s.start:s.nz:s.nz]
	for r := s.row + 1; r <= p.Rows; r++ { // the latest entry's row and those after it
		p.RowPtr[r] = int32(len(p.Col))
	}
	return p, nil
}

// mustEnd is End for a slab sized for exactly the plan being built.
func (s *PlanSlab) mustEnd() *Plan {
	p, err := s.End()
	if err != nil {
		panic(err)
	}
	return p
}

// Compile compiles the encoding into an execution plan, replaying the slot
// walk of CRISPFormat.MatMul row by row: each output row takes the non-zero
// slots of its kept blocks in stored order, groups left-to-right, slots in
// stored order, with intra-group offsets resolved against their block bounds
// to absolute column indices. Padding slots (value 0) disappear. Within each
// output row the emitted order is exactly the slot-walk order, so MatMul
// over the plan accumulates bit-identically to the slot-walking kernel. It
// panics on a matrix wider than MaxCols, and on an encoding whose slots do
// not ascend within a row, which EncodeCRISP never writes.
func (e *CRISPFormat) Compile() *Plan {
	s := NewPlanSlab(1, e.Rows, e.nnz())
	_ = s.Begin(e.Rows, e.Cols) // the slab has room for exactly this plan
	g := e.grid()
	at := make([]int, e.KeptPerRow) // each kept block's next slot
	si := 0
	for br := range g.GridRows() {
		r0, r1, _, _ := g.Bounds(br, 0)
		for k := range at {
			_, _, c0, c1 := g.Bounds(br, int(e.BlockCols[br*e.KeptPerRow+k]))
			at[k] = si
			si += (r1 - r0) * ((c1 - c0 + e.NM.M - 1) / e.NM.M) * e.NM.N
		}
		for r := r0; r < r1; r++ {
			for k := range at {
				_, _, c0, c1 := g.Bounds(br, int(e.BlockCols[br*e.KeptPerRow+k]))
				for g0 := c0; g0 < c1; g0 += e.NM.M {
					for range e.NM.N {
						if v := e.Val[at[k]]; v != 0 {
							s.Add(r*e.Cols+g0+int(e.Offsets[at[k]]), v)
						}
						at[k]++
					}
				}
			}
		}
	}
	return s.mustEnd()
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

// matmul is the plan kernel at every batch width: rowRange over every row,
// fanned out over the worker pool at batch scale.
func (p *Plan) matmul(b, out *tensor.Tensor, n int) {
	planJobs.Run(p.Rows, p.NNZ()*n, planJob{p: p, b: b, out: out, n: n})
}

// planJob is matmul's fan-out record.
type planJob struct {
	tensor.Join
	p      *Plan
	b, out *tensor.Tensor
	n      int
}

var planJobs tensor.JobPool[planJob, *planJob]

// Rows implements tensor.RowJob.
func (j *planJob) Rows(r0, r1 int) { j.p.rowRange(j.b, j.out, j.n, r0, r1) }

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
