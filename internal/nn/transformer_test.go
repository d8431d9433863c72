package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// tokenLoss adapts the rank-3 token output to the scalar loss used by the
// shared gradient checker: tokens are mean-pooled then fed to softmax-CE.
func tokenGradCheck(t *testing.T, layer Layer, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	pool := &MeanPoolTokens{}
	wrapped := NewSequential(layer, pool)
	gradCheckLayer(t, wrapped, x, labels, tol)
}

func TestTokenLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l := NewTokenLinear("tl", rng, 6, 5, true)
	x := tensor.Randn(rng, 1, 2, 3, 6)
	tokenGradCheck(t, l, x, []int{1, 4}, 1e-5)
}

func TestTokenLinearMaskedSTE(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	l := NewTokenLinear("tl", rng, 4, 4, true)
	mask := l.Weight.EnsureMask()
	for i := range mask.Data {
		mask.Data[i] = 0
	}
	x := tensor.Randn(rng, 1, 2, 3, 4)
	y := l.Forward(x, true)
	// Fully masked: output equals the bias everywhere.
	for r := 0; r < 6; r++ {
		for j := 0; j < 4; j++ {
			if y.Data[r*4+j] != l.Bias.W.Data[j] {
				t.Fatal("masked TokenLinear leaked weights")
			}
		}
	}
	_, dlogits := softmaxCE((&MeanPoolTokens{}).Forward(y, true), []int{0, 1})
	l.Backward((&MeanPoolTokens{t: 3}).Backward(dlogits))
	if l.Weight.Grad.CountNonZero() == 0 {
		t.Fatal("STE violated for TokenLinear")
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ln := NewLayerNorm("ln", 5)
	ln.Gamma.W.Data[0] = 1.4
	ln.Beta.W.Data[2] = -0.3
	x := tensor.Randn(rng, 1, 2, 3, 5)
	tokenGradCheck(t, ln, x, []int{0, 3}, 1e-3)
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ln := NewLayerNorm("ln", 8)
	x := tensor.Randn(rng, 3, 2, 4, 8)
	for i := range x.Data {
		x.Data[i] = x.Data[i]*2 + 5
	}
	y := ln.Forward(x, false)
	for r := 0; r < 8; r++ {
		seg := y.Data[r*8 : (r+1)*8]
		mean, sq := 0.0, 0.0
		for _, v := range seg {
			mean += v
			sq += v * v
		}
		mean /= 8
		variance := sq/8 - mean*mean
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("row %d mean %v var %v", r, mean, variance)
		}
	}
}

func TestMultiHeadAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	m := NewMultiHeadAttention("attn", rng, 4, 2)
	x := tensor.Randn(rng, 1, 2, 3, 4)
	tokenGradCheck(t, m, x, []int{1, 2}, 1e-3)
}

func TestMultiHeadAttentionRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	m := NewMultiHeadAttention("attn", rng, 6, 3)
	x := tensor.Randn(rng, 1, 2, 4, 6)
	m.Forward(x, true)
	tt := 4
	for r := 0; r < 2*3; r++ { // batches × heads
		for i := 0; i < tt; i++ {
			sum := 0.0
			for j := 0; j < tt; j++ {
				sum += m.attn[r*tt*tt+i*tt+j]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("attention row sums to %v", sum)
			}
		}
	}
}

func TestMultiHeadAttentionHeadsMustDivide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when heads do not divide d")
		}
	}()
	NewMultiHeadAttention("bad", rand.New(rand.NewSource(1)), 5, 2)
}

func TestPatchEmbedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pe := NewPatchEmbed("patch", rng, 2, 2, 5)
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	tokenGradCheck(t, pe, x, []int{0, 4}, 1e-4)
}

func TestPatchEmbedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	pe := NewPatchEmbed("patch", rng, 3, 4, 7)
	x := tensor.Randn(rng, 1, 2, 3, 8, 8)
	y := pe.Forward(x, false)
	if y.Shape[0] != 2 || y.Shape[1] != 4 || y.Shape[2] != 7 {
		t.Fatalf("patch tokens %v, want [2,4,7]", y.Shape)
	}
}

func TestPatchEmbedExtractValues(t *testing.T) {
	// 1 channel, 4×4 image, 2×2 patches → 4 tokens of 4 values each.
	pe := NewPatchEmbed("patch", rand.New(rand.NewSource(39)), 1, 2, 3)
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	patches := pe.ExtractPatches(x)
	want := [][]float64{
		{1, 2, 5, 6}, {3, 4, 7, 8}, {9, 10, 13, 14}, {11, 12, 15, 16},
	}
	for i, w := range want {
		for j, v := range w {
			if patches.At(i, j) != v {
				t.Fatalf("patch %d[%d] = %v, want %v", i, j, patches.At(i, j), v)
			}
		}
	}
}

func TestMeanPoolTokensRoundTrip(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4, // token 0
		5, 6, 7, 8, // token 1
	}, 1, 2, 4)
	mp := &MeanPoolTokens{}
	y := mp.Forward(x, true)
	want := []float64{3, 4, 5, 6}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	dx := mp.Backward(tensor.FromSlice([]float64{2, 2, 2, 2}, 1, 4))
	for _, v := range dx.Data {
		if v != 1 {
			t.Fatalf("pool backward %v, want 1", v)
		}
	}
}

func TestTransformerEndToEndGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	d := 4
	net := NewSequential(
		NewPatchEmbed("patch", rng, 1, 2, d),
		NewResidual(NewSequential(
			NewLayerNorm("ln1", d),
			NewMultiHeadAttention("attn", rng, d, 2),
		), nil),
		NewResidual(NewSequential(
			NewLayerNorm("ln2", d),
			NewTokenLinear("fc1", rng, d, 2*d, true),
			NewReLU(),
			NewTokenLinear("fc2", rng, 2*d, d, true),
		), nil),
		&MeanPoolTokens{},
		NewLinear("head", rng, d, 3, false),
	)
	x := tensor.Randn(rng, 1, 2, 1, 4, 4)
	gradCheckLayer(t, net, x, []int{0, 2}, 2e-3)
}
