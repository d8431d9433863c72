package format

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// bitsFor returns ⌈log2 n⌉ with a floor of 1 bit.
func bitsFor(n int) int {
	if n <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// checkMatrix asserts m is rank-2 and returns (rows, cols).
func checkMatrix(m *tensor.Tensor) (int, int) {
	if len(m.Shape) != 2 {
		panic(fmt.Sprintf("format: rank-2 matrix required, got %v", m.Shape))
	}
	return m.Shape[0], m.Shape[1]
}

// checkSpMM asserts b is rank-2 with the expected inner dimension.
func checkSpMM(b *tensor.Tensor, cols int) (int, int) {
	if len(b.Shape) != 2 || b.Shape[0] != cols {
		panic(fmt.Sprintf("format: SpMM operand %v does not match inner dim %d", b.Shape, cols))
	}
	return b.Shape[0], b.Shape[1]
}
