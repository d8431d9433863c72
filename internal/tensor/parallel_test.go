package tensor

import (
	"math/rand"
	"testing"
)

// TestGemmFanOutAllocatesNothing: a GEMM above the fan-out threshold hands
// the worker pool a pooled job record whose join counter is its own, so
// the call allocates nothing — training runs thousands of them.
func TestGemmFanOutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const m, n, k = 64, 64, 64
	if m*n*k < ParallelThreshold {
		t.Fatalf("%d×%d×%d does not cross the fan-out threshold %d", m, n, k, ParallelThreshold)
	}
	rng := rand.New(rand.NewSource(1))
	a, b, c := Randn(rng, 1, m, k), Randn(rng, 1, k, n), New(m, n)
	// The first call starts the pool at the process's GOMAXPROCS, which
	// AllocsPerRun then lowers to 1; the pool keeps its workers.
	Gemm(false, false, m, n, k, 1, a.Data, b.Data, 0, c.Data)
	for _, tr := range [][2]bool{{false, false}, {true, false}, {false, true}} {
		if got := testing.AllocsPerRun(50, func() { Gemm(tr[0], tr[1], m, n, k, 1, a.Data, b.Data, 0, c.Data) }); got != 0 {
			t.Errorf("Gemm(transA=%v, transB=%v) %d×%d×%d allocates %v objects, want 0", tr[0], tr[1], m, n, k, got)
		}
	}
}
