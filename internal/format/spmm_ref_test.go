package format

import (
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// The storage formats' SpMM kernels and decoders, and the allocating
// MatMul forms of the two plans. No served path calls them: they are the
// oracles TestKernelConformance, TestSpMMMatchesDense and FuzzPlanMatMul
// hold the compiled plans to, so they live beside those tests.

// Decode reconstructs the dense matrix.
func (c *CSR) Decode() *tensor.Tensor {
	out := tensor.New(c.Rows, c.Cols)
	for r := 0; r < c.Rows; r++ {
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			out.Data[r*c.Cols+int(c.ColIdx[i])] = c.Val[i]
		}
	}
	return out
}

// MatMul computes the matrix times a dense Cols×n matrix b. Rows are independent, so large problems
// (batched inference) fan out across GOMAXPROCS workers with bit-identical
// results.
func (c *CSR) MatMul(b *tensor.Tensor) *tensor.Tensor {
	_, n := checkSpMM(b, c.Cols)
	out := tensor.New(c.Rows, n)
	csrJobs.Run(c.Rows, len(c.Val)*n, csrJob{c: c, b: b.Data, out: out.Data, n: n})
	return out
}

// csrJob is CSR.MatMul's fan-out record.
type csrJob struct {
	tensor.Join
	c      *CSR
	b, out []float64
	n      int
}

var csrJobs tensor.JobPool[csrJob, *csrJob]

// Rows implements tensor.RowJob.
func (j *csrJob) Rows(row0, row1 int) {
	c, n := j.c, j.n
	for r := row0; r < row1; r++ {
		dst := j.out[r*n : (r+1)*n]
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			v := c.Val[i]
			src := j.b[int(c.ColIdx[i])*n : (int(c.ColIdx[i])+1)*n]
			for k, bv := range src {
				dst[k] += v * bv
			}
		}
	}
}

// Decode reconstructs the dense matrix.
func (e *ELLPACK) Decode() *tensor.Tensor {
	out := tensor.New(e.Rows, e.Cols)
	for r := 0; r < e.Rows; r++ {
		for k := 0; k < e.Width; k++ {
			out.Data[r*e.Cols+int(e.ColIdx[r*e.Width+k])] += e.Val[r*e.Width+k]
		}
	}
	return out
}

// MatMul computes the matrix times a dense Cols×n matrix b.
func (e *ELLPACK) MatMul(b *tensor.Tensor) *tensor.Tensor {
	_, n := checkSpMM(b, e.Cols)
	out := tensor.New(e.Rows, n)
	for r := 0; r < e.Rows; r++ {
		dst := out.Data[r*n : (r+1)*n]
		for k := 0; k < e.Width; k++ {
			v := e.Val[r*e.Width+k]
			if v == 0 {
				continue
			}
			src := b.Data[int(e.ColIdx[r*e.Width+k])*n : (int(e.ColIdx[r*e.Width+k])+1)*n]
			for j, bv := range src {
				dst[j] += v * bv
			}
		}
	}
	return out
}

// Decode reconstructs the dense matrix.
func (e *CRISPFormat) Decode() *tensor.Tensor {
	out := tensor.New(e.Rows, e.Cols)
	g := e.grid()
	si := 0
	for br := 0; br < g.GridRows(); br++ {
		for k := 0; k < e.KeptPerRow; k++ {
			bc := int(e.BlockCols[br*e.KeptPerRow+k])
			r0, r1, c0, c1 := g.Bounds(br, bc)
			for r := r0; r < r1; r++ {
				for g0 := c0; g0 < c1; g0 += e.NM.M {
					for s := 0; s < e.NM.N; s++ {
						// Padding slots add zero; real slots write their value.
						out.Data[r*e.Cols+g0+int(e.Offsets[si])] += e.Val[si]
						si++
					}
				}
			}
		}
	}
	return out
}

// slotStarts returns the index into Val/Offsets where each block row's
// slots begin (length gridRows+1), so MatMul can give each worker an
// independent starting slot. Slot counts follow from the grid geometry
// alone.
func (e *CRISPFormat) slotStarts(g sparsity.BlockGrid) []int {
	starts := make([]int, g.GridRows()+1)
	for br := 0; br < g.GridRows(); br++ {
		slots := 0
		for k := 0; k < e.KeptPerRow; k++ {
			bc := int(e.BlockCols[br*e.KeptPerRow+k])
			r0, r1, c0, c1 := g.Bounds(br, bc)
			groups := ((c1 - c0) + e.NM.M - 1) / e.NM.M
			slots += (r1 - r0) * groups * e.NM.N
		}
		starts[br+1] = starts[br] + slots
	}
	return starts
}

// MatMul computes the matrix times a dense Cols×n matrix b: the software analogue of the accelerator's
// offset-driven activation selection. Block rows are independent, so large
// problems (batched inference) fan out across GOMAXPROCS workers with
// bit-identical results.
func (e *CRISPFormat) MatMul(b *tensor.Tensor) *tensor.Tensor {
	_, n := checkSpMM(b, e.Cols)
	out := tensor.New(e.Rows, n)
	g := e.grid()
	crispJobs.Run(g.GridRows(), len(e.Val)*n, crispJob{e: e, g: g, starts: e.slotStarts(g), b: b.Data, out: out.Data, n: n})
	return out
}

// crispJob is CRISPFormat.MatMul's fan-out record; its rows are block rows.
type crispJob struct {
	tensor.Join
	e      *CRISPFormat
	g      sparsity.BlockGrid
	starts []int
	b, out []float64
	n      int
}

var crispJobs tensor.JobPool[crispJob, *crispJob]

// Rows implements tensor.RowJob: it computes block rows [br0, br1).
func (j *crispJob) Rows(br0, br1 int) {
	e, g, n := j.e, j.g, j.n
	for br := br0; br < br1; br++ {
		si := j.starts[br]
		for k := 0; k < e.KeptPerRow; k++ {
			bc := int(e.BlockCols[br*e.KeptPerRow+k])
			r0, r1, c0, c1 := g.Bounds(br, bc)
			for r := r0; r < r1; r++ {
				dst := j.out[r*n : (r+1)*n]
				for g0 := c0; g0 < c1; g0 += e.NM.M {
					for s := 0; s < e.NM.N; s++ {
						v := e.Val[si]
						col := g0 + int(e.Offsets[si])
						si++
						if v == 0 {
							continue
						}
						src := j.b[col*n : (col+1)*n]
						for x, bv := range src {
							dst[x] += v * bv
						}
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

// MatMul computes QuantPlan · B into a new tensor, allocating its own
// scratch — the convenience form of MatMulInto.
func (q *QuantPlan) MatMul(b *tensor.Tensor) *tensor.Tensor {
	_, n := checkSpMM(b, q.Cols)
	return q.MatMulInto(b, tensor.New(q.Rows, n), QuantScratch{})
}
