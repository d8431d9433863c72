package format

import "repro/internal/tensor"

// ellpackIndexBits is ITPACK/ELLPACK's fixed-width column-index storage.
const ellpackIndexBits = 16

// ELLPACK pads every row to the maximum row population and stores a dense
// rows×width index/value pair of arrays (the ITPACKV layout). Padding slots
// repeat a valid column index with a zero value.
type ELLPACK struct {
	Rows, Cols, Width int
	ColIdx            []int32   // rows × Width
	Val               []float64 // rows × Width
}

// EncodeELLPACK encodes the non-zeros of the dense matrix m.
func EncodeELLPACK(m *tensor.Tensor) *ELLPACK {
	rows, cols := checkMatrix(m)
	width := 0
	for r := 0; r < rows; r++ {
		n := 0
		for cc := 0; cc < cols; cc++ {
			if m.Data[r*cols+cc] != 0 {
				n++
			}
		}
		if n > width {
			width = n
		}
	}
	e := &ELLPACK{Rows: rows, Cols: cols, Width: width,
		ColIdx: make([]int32, rows*width), Val: make([]float64, rows*width)}
	for r := 0; r < rows; r++ {
		k := 0
		for cc := 0; cc < cols; cc++ {
			if v := m.Data[r*cols+cc]; v != 0 {
				e.ColIdx[r*width+k] = int32(cc)
				e.Val[r*width+k] = v
				k++
			}
		}
		for ; k < width; k++ {
			e.ColIdx[r*width+k] = 0 // padding: zero value at column 0
		}
	}
	return e
}

// Name identifies the format.
func (e *ELLPACK) Name() string { return "ellpack" }

// MetadataBits is the index overhead in bits: fixed 16-bit indices for
// every padded slot — the padding overhead the paper's Fig. 4 calls out.
func (e *ELLPACK) MetadataBits() int64 {
	return ELLPACKMetadataBits(e.Rows, e.Width)
}

// DataBits is the value payload in bits: padded slots carry values too.
func (e *ELLPACK) DataBits(valueBits int) int64 {
	return int64(e.Rows) * int64(e.Width) * int64(valueBits)
}

// ELLPACKMetadataBits is the analytical model: every padded slot stores a
// 16-bit index.
func ELLPACKMetadataBits(rows, width int) int64 {
	return int64(rows) * int64(width) * ellpackIndexBits
}
