package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// lossOf runs a forward pass through layer and the softmax-CE loss,
// used as the scalar objective for finite-difference checks.
func lossOf(layer Layer, x *tensor.Tensor, labels []int) float64 {
	y := layer.Forward(x, true)
	if len(y.Shape) == 4 {
		y = y.Reshape(y.Shape[0], -1)
	}
	loss, _ := softmaxCE(y, labels)
	return loss
}

// gradCheckLayer compares analytic parameter and input gradients of layer
// against central finite differences.
func gradCheckLayer(t *testing.T, layer Layer, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	// Analytic gradients.
	ZeroGrad(layer.Params())
	y := layer.Forward(x, true)
	flat := y
	if len(y.Shape) == 4 {
		flat = y.Reshape(y.Shape[0], -1)
	}
	_, dflat := softmaxCE(flat, labels)
	dy := dflat
	if len(y.Shape) == 4 {
		dy = dflat.Reshape(y.Shape...)
	}
	dx := layer.Backward(dy)

	const h = 1e-5
	// Parameter gradients.
	for _, p := range layer.Params() {
		step := (p.W.Len() + 9) / 10 // probe ≤10 entries per tensor
		if step == 0 {
			step = 1
		}
		for i := 0; i < p.W.Len(); i += step {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := lossOf(layer, x, labels)
			p.W.Data[i] = orig - h
			lm := lossOf(layer, x, labels)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
	// Input gradients.
	step := (x.Len() + 9) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < x.Len(); i += step {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := lossOf(layer, x, labels)
		x.Data[i] = orig - h
		lm := lossOf(layer, x, labels)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
}

func TestConv2DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	conv := NewConv2D("c", rng, 2, 3, 3, 3, 1, 1, true)
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	labels := []int{5, 17}
	gradCheckLayer(t, conv, x, labels, 1e-4)
}

func TestConv2DStridedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	conv := NewConv2D("c", rng, 2, 4, 3, 3, 2, 1, false)
	x := tensor.Randn(rng, 1, 2, 2, 5, 5)
	labels := []int{3, 20}
	gradCheckLayer(t, conv, x, labels, 1e-4)
}

func TestConv2DMaskedGradCheck(t *testing.T) {
	// The STE contract: masked forward, dense gradient. Numeric gradient of
	// the *effective* function w.r.t. a masked weight is zero only through
	// the mask; our dense gradient intentionally differs there. So we check
	// gradients only at unmasked positions.
	rng := rand.New(rand.NewSource(12))
	conv := NewConv2D("c", rng, 2, 3, 3, 3, 1, 1, false)
	mask := conv.Weight.EnsureMask()
	for i := range mask.Data {
		if i%2 == 0 {
			mask.Data[i] = 0
		}
	}
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	labels := []int{0, 10}

	ZeroGrad(conv.Params())
	y := conv.Forward(x, true)
	flat := y.Reshape(2, -1)
	_, dflat := softmaxCE(flat, labels)
	conv.Backward(dflat.Reshape(y.Shape...))

	const h = 1e-5
	for i := 0; i < conv.Weight.W.Len(); i += 7 {
		if mask.Data[i] == 0 {
			continue // STE: dense grad deliberately nonzero where numeric is 0
		}
		orig := conv.Weight.W.Data[i]
		conv.Weight.W.Data[i] = orig + h
		lp := lossOf(conv, x, labels)
		conv.Weight.W.Data[i] = orig - h
		lm := lossOf(conv, x, labels)
		conv.Weight.W.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-conv.Weight.Grad.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("masked conv grad[%d]: analytic %v vs numeric %v", i, conv.Weight.Grad.Data[i], num)
		}
	}
}

func TestDepthwiseConv2DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dw := NewDepthwiseConv2D("d", rng, 3, 3, 3, 1, 1, true)
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	labels := []int{1, 30}
	gradCheckLayer(t, dw, x, labels, 1e-4)
}

func TestDepthwiseConv2DStridedGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dw := NewDepthwiseConv2D("d", rng, 2, 3, 3, 2, 1, false)
	x := tensor.Randn(rng, 1, 2, 2, 5, 5)
	labels := []int{0, 8}
	gradCheckLayer(t, dw, x, labels, 1e-4)
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	lin := NewLinear("l", rng, 6, 4, true)
	x := tensor.Randn(rng, 1, 3, 6)
	labels := []int{0, 3, 2}
	gradCheckLayer(t, lin, x, labels, 1e-5)
}

func TestBatchNormGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	bn := NewBatchNorm2D("bn", 2)
	// Perturb gamma/beta away from the identity so gradients are generic.
	bn.Gamma.W.Data[0] = 1.3
	bn.Gamma.W.Data[1] = 0.7
	bn.Beta.W.Data[0] = 0.2
	x := tensor.Randn(rng, 1, 3, 2, 3, 3)
	labels := []int{4, 9, 0}
	gradCheckLayer(t, bn, x, labels, 1e-3)
}

func TestReLUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := tensor.Randn(rng, 1, 2, 8)
	// Push values away from the kink at 0 so finite differences are clean.
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.1 {
			x.Data[i] += 0.3
		}
	}
	labels := []int{2, 6}
	gradCheckLayer(t, NewReLU(), x, labels, 1e-5)
}

func TestReLU6GradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	x := tensor.New(2, 8)
	for i := range x.Data {
		x.Data[i] = -2 + 10*rng.Float64()
		if math.Abs(x.Data[i]) < 0.1 || math.Abs(x.Data[i]-6) < 0.1 {
			x.Data[i] += 0.3
		}
	}
	labels := []int{1, 5}
	gradCheckLayer(t, NewReLU6(), x, labels, 1e-5)
}

func TestMaxPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	labels := []int{3, 7}
	gradCheckLayer(t, NewMaxPool2D(2, 2), x, labels, 1e-5)
}

func TestGlobalAvgPoolGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := tensor.Randn(rng, 1, 2, 3, 4, 4)
	labels := []int{0, 2}
	gradCheckLayer(t, &GlobalAvgPool{}, x, labels, 1e-5)
}

func TestResidualGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	main := NewSequential(
		NewConv2D("m1", rng, 2, 2, 3, 3, 1, 1, true),
		NewReLU(),
		NewConv2D("m2", rng, 2, 2, 3, 3, 1, 1, true),
	)
	res := NewResidual(main, nil)
	x := tensor.Randn(rng, 1, 2, 2, 3, 3)
	labels := []int{5, 11}
	gradCheckLayer(t, res, x, labels, 1e-4)
}

func TestResidualProjectionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	main := NewSequential(
		NewConv2D("m1", rng, 2, 4, 3, 3, 2, 1, true),
	)
	short := NewSequential(
		NewConv2D("s1", rng, 2, 4, 1, 1, 2, 0, true),
	)
	res := NewResidual(main, short)
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	labels := []int{7, 13}
	gradCheckLayer(t, res, x, labels, 1e-4)
}

func TestSequentialEndToEndGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := NewSequential(
		NewConv2D("c1", rng, 1, 3, 3, 3, 1, 1, false),
		NewBatchNorm2D("bn1", 3),
		NewReLU(),
		NewMaxPool2D(2, 2),
		&Flatten{},
		NewLinear("fc", rng, 3*2*2, 5, true),
	)
	x := tensor.Randn(rng, 1, 2, 1, 4, 4)
	labels := []int{0, 4}
	gradCheckLayer(t, net, x, labels, 1e-3)
}
