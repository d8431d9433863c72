package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestActivationStats(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	net := NewSequential(
		NewConv2D("c", rng, 1, 4, 3, 3, 1, 1, true),
		NewReLU(),
		NewConv2D("c2", rng, 4, 4, 3, 3, 1, 1, true),
		NewReLU(),
	)
	stats := CollectActivationStats(net)
	x := tensor.Randn(rng, 1, 2, 1, 6, 6)
	net.Forward(x, false)
	if stats.Total == 0 {
		t.Fatal("no activations counted")
	}
	d := stats.Density()
	// Random-init conv outputs are ~half positive.
	if d < 0.2 || d > 0.8 {
		t.Fatalf("activation density %v implausible", d)
	}
	// Accumulates across calls.
	before := stats.Total
	net.Forward(x, false)
	if stats.Total != 2*before {
		t.Fatalf("stats did not accumulate: %d vs %d", stats.Total, before)
	}
}

func TestActivationStatsEmptyDensity(t *testing.T) {
	s := &ActStats{}
	if s.Density() != 1 {
		t.Fatal("empty stats must report density 1")
	}
}

func TestGELUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	x := tensor.Randn(rng, 1, 2, 8)
	labels := []int{2, 6}
	gradCheckLayer(t, &GELU{}, x, labels, 1e-4)
}

func TestGELUKnownValues(t *testing.T) {
	g := &GELU{}
	x := tensor.FromSlice([]float64{0, 3, -3}, 1, 3)
	y := g.Forward(x, false)
	if y.Data[0] != 0 {
		t.Fatalf("GELU(0) = %v", y.Data[0])
	}
	// Far from the origin GELU approaches identity / zero.
	if math.Abs(y.Data[1]-3) > 0.01 {
		t.Fatalf("GELU(3) = %v, want ≈3", y.Data[1])
	}
	if math.Abs(y.Data[2]) > 0.01 {
		t.Fatalf("GELU(-3) = %v, want ≈0", y.Data[2])
	}
}
