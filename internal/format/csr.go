package format

import "repro/internal/tensor"

// CSR is the compressed-sparse-row encoding: row pointers plus one column
// index per non-zero.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Val        []float64
}

// EncodeCSR encodes the non-zeros of the dense matrix m.
func EncodeCSR(m *tensor.Tensor) *CSR {
	rows, cols := checkMatrix(m)
	nnz := m.CountNonZero()
	c := &CSR{
		Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, 0, nnz), Val: make([]float64, 0, nnz),
	}
	for r := 0; r < rows; r++ {
		for cc := 0; cc < cols; cc++ {
			if v := m.Data[r*cols+cc]; v != 0 {
				c.ColIdx = append(c.ColIdx, int32(cc))
				c.Val = append(c.Val, v)
			}
		}
		c.RowPtr[r+1] = int32(len(c.ColIdx))
	}
	return c
}

// Name implements Encoded.
func (c *CSR) Name() string { return "csr" }

// MetadataBits implements Encoded: per-nnz column indices at ⌈log2 cols⌉
// bits plus 32-bit row pointers.
func (c *CSR) MetadataBits() int64 {
	return CSRMetadataBits(c.Rows, c.Cols, len(c.Val))
}

// DataBits implements Encoded.
func (c *CSR) DataBits(valueBits int) int64 { return int64(len(c.Val)) * int64(valueBits) }

// Decode implements Encoded.
func (c *CSR) Decode() *tensor.Tensor {
	out := tensor.New(c.Rows, c.Cols)
	for r := 0; r < c.Rows; r++ {
		for i := c.RowPtr[r]; i < c.RowPtr[r+1]; i++ {
			out.Data[r*c.Cols+int(c.ColIdx[i])] = c.Val[i]
		}
	}
	return out
}

// MatMul implements Encoded. Rows are independent, so large problems
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

// CSRMetadataBits is the analytical model for a rows×cols matrix with nnz
// non-zeros.
func CSRMetadataBits(rows, cols, nnz int) int64 {
	return int64(nnz)*int64(bitsFor(cols)) + int64(rows+1)*32
}
