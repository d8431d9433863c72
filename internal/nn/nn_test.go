package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestParamMatrixView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D("c", rng, 3, 8, 3, 3, 1, 1, false)
	p := conv.Weight
	if p.Rows != 8 || p.Cols != 27 {
		t.Fatalf("pruning view %dx%d, want 8x27", p.Rows, p.Cols)
	}
	mv := p.MatrixView()
	mv.Set(42, 5, 13)
	if p.W.Data[5*27+13] != 42 {
		t.Fatal("MatrixView must share storage")
	}
}

func TestParamDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lin := NewLinear("l", rng, 4, 4, true)
	if lin.Weight.Density() != 1 {
		t.Fatalf("dense density = %v", lin.Weight.Density())
	}
	m := lin.Weight.EnsureMask()
	for i := 0; i < 8; i++ {
		m.Data[i] = 0
	}
	if lin.Weight.Density() != 0.5 {
		t.Fatalf("density = %v, want 0.5", lin.Weight.Density())
	}
	lin.Weight.ClearMask()
	if lin.Weight.Density() != 1 {
		t.Fatal("ClearMask must restore density 1")
	}
}

func TestMaskedForwardZeroesContribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lin := NewLinear("l", rng, 3, 2, true)
	x := tensor.FromSlice([]float64{1, 2, 3}, 1, 3)
	dense := lin.Forward(x, false)
	// Mask out the entire first output row: logit 0 must become bias only.
	m := lin.Weight.EnsureMask()
	m.Data[0], m.Data[1], m.Data[2] = 0, 0, 0
	masked := lin.Forward(x, false)
	if masked.Data[0] != lin.Bias.W.Data[0] {
		t.Fatalf("masked row output = %v, want bias %v", masked.Data[0], lin.Bias.W.Data[0])
	}
	if masked.Data[1] != dense.Data[1] {
		t.Fatal("unmasked row must be unchanged")
	}
}

func TestSTEGradientIsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lin := NewLinear("l", rng, 4, 3, true)
	m := lin.Weight.EnsureMask()
	for i := range m.Data {
		m.Data[i] = 0 // fully masked
	}
	x := tensor.Randn(rng, 1, 2, 4)
	loss := 0.0
	logits := lin.Forward(x, true)
	loss, dlogits := softmaxCE(logits, []int{0, 1})
	lin.Backward(dlogits)
	_ = loss
	// Even though every weight is masked, dense gradients must flow.
	if lin.Weight.Grad.CountNonZero() == 0 {
		t.Fatal("STE violated: gradient is zero under a full mask")
	}
}

// softmaxCE is the loss TrainBatch takes, with its gradient in a fresh
// tensor.
func softmaxCE(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	grad := tensor.New(logits.Shape...)
	return softmaxCrossEntropy(logits, labels, grad), grad
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over C classes → loss = ln(C).
	logits := tensor.New(2, 4)
	loss, grad := softmaxCE(logits, []int{1, 2})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// Gradient rows sum to zero.
	for b := 0; b < 2; b++ {
		s := 0.0
		for j := 0; j < 4; j++ {
			s += grad.At(b, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sums to %v", b, s)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.FromSlice([]float64{1e4, -1e4, 0}, 1, 3)
	loss, grad := softmaxCE(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(g) {
			t.Fatal("NaN gradient")
		}
	}
}

// TestSoftmaxRowsSumToOne: a row of SoftmaxCrossEntropy's gradient is
// (softmax − one-hot)/N, so it sums to zero exactly when the row's softmax
// sums to one.
func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, grad := softmaxCE(tensor.Randn(rng, 3, 4, 6), []int{0, 5, 2, 3})
	for b := 0; b < 4; b++ {
		s := 0.0
		for j := 0; j < 6; j++ {
			s += grad.At(b, j)
		}
		if math.Abs(4*s) > 1e-12 {
			t.Fatalf("row %d's softmax sums to %v", b, 1+4*s)
		}
	}
}

func TestSGDStepDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lin := NewLinear("l", rng, 2, 2, true)
	lin.Weight.Grad.Fill(1)
	w0 := lin.Weight.W.Clone()
	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*Param{lin.Weight})
	for i := range w0.Data {
		if math.Abs(lin.Weight.W.Data[i]-(w0.Data[i]-0.1)) > 1e-12 {
			t.Fatalf("SGD step wrong at %d", i)
		}
	}
	if lin.Weight.Grad.CountNonZero() != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lin := NewLinear("l", rng, 1, 1, true)
	opt := NewSGD(1, 0.5, 0)
	w0 := lin.Weight.W.Data[0]
	lin.Weight.Grad.Fill(1)
	opt.Step([]*Param{lin.Weight})
	lin.Weight.Grad.Fill(1)
	opt.Step([]*Param{lin.Weight})
	// v1 = -1; v2 = 0.5*(-1) - 1 = -1.5; w = w0 - 1 - 1.5.
	if math.Abs(lin.Weight.W.Data[0]-(w0-2.5)) > 1e-12 {
		t.Fatalf("momentum update = %v, want %v", lin.Weight.W.Data[0], w0-2.5)
	}
}

func TestSGDNoDecayRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	lin := NewLinear("l", rng, 2, 2, true)
	b0 := append([]float64(nil), lin.Bias.W.Data...)
	opt := NewSGD(0.1, 0, 1.0) // huge weight decay
	opt.Step(lin.Params())     // zero grads: only decay acts
	for i := range b0 {
		if lin.Bias.W.Data[i] != b0[i] {
			t.Fatal("bias must not be decayed (NoDecay)")
		}
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bn := NewBatchNorm2D("bn", 3)
	x := tensor.Randn(rng, 2, 4, 3, 5, 5)
	for i := range x.Data {
		x.Data[i] = x.Data[i]*3 + 1 // nonzero mean, nonunit var
	}
	y := bn.Forward(x, true)
	// Per-channel output mean ≈ beta (0), var ≈ gamma² (1).
	n, c, h, w := 4, 3, 5, 5
	for ch := 0; ch < c; ch++ {
		mean, sq := 0.0, 0.0
		for b := 0; b < n; b++ {
			for _, v := range y.Data[(b*c+ch)*h*w : (b*c+ch+1)*h*w] {
				mean += v
				sq += v * v
			}
		}
		cnt := float64(n * h * w)
		mean /= cnt
		variance := sq/cnt - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean %v, want 0", ch, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d var %v, want 1", ch, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bn := NewBatchNorm2D("bn", 2)
	// Train several batches to converge running stats.
	for i := 0; i < 50; i++ {
		x := tensor.Randn(rng, 2, 8, 2, 4, 4)
		for j := range x.Data {
			x.Data[j] = x.Data[j]*2 + 3
		}
		bn.Forward(x, true)
	}
	// Eval on a single constant input: output should be ≈ (3-3)/2 = 0 for x=3.
	x := tensor.Full(3, 1, 2, 4, 4)
	y := bn.Forward(x, false)
	for _, v := range y.Data {
		if math.Abs(v) > 0.2 {
			t.Fatalf("eval-mode output %v, want ≈0", v)
		}
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 5, 3,
		4, 0, 1, 2,
		7, 1, 0, 0,
		2, 3, 1, 9,
	}, 1, 1, 4, 4)
	y := NewMaxPool2D(2, 2).Forward(x, false)
	want := []float64{4, 5, 7, 9}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("maxpool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestGlobalAvgPoolValues(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := (&GlobalAvgPool{}).Forward(x, false)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("gap = %v", y.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := &Flatten{}
	x := tensor.Randn(rng, 1, 2, 3, 4, 5)
	y := f.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 60 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dx := f.Backward(y)
	if len(dx.Shape) != 4 || dx.Shape[3] != 5 {
		t.Fatalf("unflatten shape %v", dx.Shape)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// A tiny conv net must be able to fit a 2-class toy problem.
	rng := rand.New(rand.NewSource(12))
	net := NewSequential(
		NewConv2D("c1", rng, 1, 4, 3, 3, 1, 1, true),
		NewReLU(),
		&GlobalAvgPool{},
		NewLinear("fc", rng, 4, 2, true),
	)
	clf := NewClassifier("toy", net, 2)
	// Class 0: bright center; class 1: dark center.
	mkBatch := func() (*tensor.Tensor, []int) {
		x := tensor.New(8, 1, 6, 6)
		labels := make([]int, 8)
		for b := 0; b < 8; b++ {
			labels[b] = b % 2
			sign := 1.0
			if labels[b] == 1 {
				sign = -1
			}
			for i := 0; i < 36; i++ {
				x.Data[b*36+i] = rng.NormFloat64() * 0.1
			}
			x.Data[b*36+14] += sign * 2
			x.Data[b*36+15] += sign * 2
		}
		return x, labels
	}
	opt := NewSGD(0.05, 0.9, 0)
	x0, l0 := mkBatch()
	first := clf.TrainBatch(x0, l0)
	ZeroGrad(clf.Params())
	var last float64
	for i := 0; i < 60; i++ {
		x, labels := mkBatch()
		last = clf.TrainBatch(x, labels)
		opt.Step(clf.Params())
	}
	if last > first*0.5 {
		t.Fatalf("training did not reduce loss: first %v last %v", first, last)
	}
	x, labels := mkBatch()
	if acc := clf.Accuracy(x, labels); acc < 0.9 {
		t.Fatalf("toy accuracy %v, want ≥0.9", acc)
	}
}

func TestClassifierGlobalSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewSequential(
		NewConv2D("c1", rng, 1, 2, 3, 3, 1, 1, false), // 18 weights
		NewLinear("fc", rng, 2, 2, true),              // 4 weights
	)
	clf := NewClassifier("s", net, 2)
	if s := clf.GlobalSparsity(); s != 0 {
		t.Fatalf("dense sparsity = %v", s)
	}
	// Mask half the conv weights: 9 zeros of 22 prunable.
	m := clf.PrunableParams()[0].EnsureMask()
	for i := 0; i < 9; i++ {
		m.Data[i] = 0
	}
	want := 9.0 / 22.0
	if s := clf.GlobalSparsity(); math.Abs(s-want) > 1e-12 {
		t.Fatalf("sparsity = %v, want %v", s, want)
	}
	clf.PrunableParams()[0].ClearMask()
	if s := clf.GlobalSparsity(); s != 0 {
		t.Fatal("clearing the mask must restore dense")
	}
}

func TestCloneWeightsTo(t *testing.T) {
	build := func(seed int64) *Classifier {
		rng := rand.New(rand.NewSource(seed))
		net := NewSequential(
			NewConv2D("c1", rng, 1, 2, 3, 3, 1, 1, false),
			NewBatchNorm2D("bn", 2),
			NewReLU(),
			&GlobalAvgPool{},
			NewLinear("fc", rng, 2, 3, true),
		)
		return NewClassifier("m", net, 3)
	}
	a := build(1)
	b := build(2)
	// Give a some state.
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 4, 1, 5, 5)
	a.TrainBatch(x, []int{0, 1, 2, 0})
	a.PrunableParams()[0].EnsureMask().Data[0] = 0
	a.CloneWeightsTo(b)

	xa := a.Logits(x, false)
	xb := b.Logits(x, false)
	if !tensor.Equal(xa, xb, 1e-12) {
		t.Fatal("cloned model disagrees with source")
	}
}
