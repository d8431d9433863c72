package format

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// benchPlanShape builds a random CSR plan at the given shape/density and a
// matching activation.
func benchPlanShape(rows, cols, n int, density float64) (*Plan, *tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(7))
	m := tensor.New(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.NormFloat64()
		}
	}
	p := EncodeCSR(m).Compile()
	b := tensor.Randn(rng, 1, cols, n)
	return p, b, tensor.New(rows, n)
}

// BenchmarkKernelShapes times both kernels, called directly, on shapes the
// dispatch rule sends each way: cache-resident one-pass batches (n = 4, 8,
// blocked), a wide batch (n = 16, scalar) and a streaming-sized lowered
// conv activation (scalar). The sub-benchmark name carries blockedAuto's
// verdict, so a run shows whether the rule still picks the faster side.
func BenchmarkKernelShapes(b *testing.B) {
	shapes := []struct {
		rows, cols, n int
		density       float64
	}{
		{512, 4096, 4, 0.10},
		{512, 4096, 8, 0.10},
		{512, 4096, 16, 0.10},
		{64, 576, 1024, 0.15},
	}
	for _, sh := range shapes {
		p, act, out := benchPlanShape(sh.rows, sh.cols, sh.n, sh.density)
		verdict := "scalar"
		if blockedAuto(sh.cols, sh.n) {
			verdict = "blocked"
		}
		name := fmt.Sprintf("%dx%dx%d/dispatch=%s", sh.rows, sh.cols, sh.n, verdict)
		b.Run(name+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.matmulScalar(act, out, sh.n)
			}
		})
		b.Run(name+"/blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.matmulBlocked(act, out, sh.n, defaultRowTile)
			}
		})
	}
}
