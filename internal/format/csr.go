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

// Name identifies the format.
func (c *CSR) Name() string { return "csr" }

// MetadataBits is the index overhead in bits: per-nnz column indices at
// ⌈log2 cols⌉ bits plus 32-bit row pointers.
func (c *CSR) MetadataBits() int64 {
	return CSRMetadataBits(c.Rows, c.Cols, len(c.Val))
}

// DataBits is the value payload in bits.
func (c *CSR) DataBits(valueBits int) int64 { return int64(len(c.Val)) * int64(valueBits) }

// CSRMetadataBits is the analytical model for a rows×cols matrix with nnz
// non-zeros.
func CSRMetadataBits(rows, cols, nnz int) int64 {
	return int64(nnz)*int64(bitsFor(cols)) + int64(rows+1)*32
}
