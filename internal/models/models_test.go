package models

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// totals sums the dense weight and multiply-accumulate counts of one
// inference over the shapes, for holding them to the published figures.
func totals(shapes []LayerShape) (params, macs int64) {
	for _, l := range shapes {
		params += l.Params()
		macs += l.Params() * int64(l.OutH()) * int64(l.OutW())
	}
	return params, macs
}

func TestResNet50ShapesStructure(t *testing.T) {
	shapes := ResNet50Shapes()
	// 1 stem + (3+4+6+3)*3 bottleneck convs + 4 projections + 1 fc = 54.
	if len(shapes) != 54 {
		t.Fatalf("ResNet-50 layer count = %d, want 54", len(shapes))
	}
	if shapes[0].Name != "conv1" || shapes[0].OutH() != 112 {
		t.Fatalf("stem wrong: %+v outH=%d", shapes[0], shapes[0].OutH())
	}
	last := shapes[len(shapes)-1]
	if last.Kind != KindLinear || last.InC != 2048 || last.OutC != 1000 {
		t.Fatalf("classifier wrong: %+v", last)
	}
	// Published parameter count for ResNet-50 is ≈25.5M including biases/BN;
	// conv+fc weights alone are ≈25.0M.
	p, m := totals(shapes)
	if p < 24_000_000 || p > 26_500_000 {
		t.Fatalf("ResNet-50 params = %d, want ≈25M", p)
	}
	// Published MACs ≈ 4.1 GMACs (with fc).
	if m < 3_500_000_000 || m > 4_500_000_000 {
		t.Fatalf("ResNet-50 MACs = %d, want ≈4.1G", m)
	}
}

func TestVGG16ShapesStructure(t *testing.T) {
	shapes := VGG16Shapes()
	if len(shapes) != 16 {
		t.Fatalf("VGG-16 layer count = %d, want 16", len(shapes))
	}
	// Published: ≈138M params, ≈15.5 GMACs.
	p, m := totals(shapes)
	if p < 130_000_000 || p > 142_000_000 {
		t.Fatalf("VGG-16 params = %d, want ≈138M", p)
	}
	if m < 14_500_000_000 || m > 16_500_000_000 {
		t.Fatalf("VGG-16 MACs = %d, want ≈15.5G", m)
	}
}

func TestMobileNetV2ShapesStructure(t *testing.T) {
	shapes := MobileNetV2Shapes()
	// Published: ≈3.4M params (weights ≈3.3M), ≈300M MACs.
	p, m := totals(shapes)
	if p < 3_000_000 || p > 3_800_000 {
		t.Fatalf("MobileNetV2 params = %d, want ≈3.4M", p)
	}
	if m < 280_000_000 || m > 330_000_000 {
		t.Fatalf("MobileNetV2 MACs = %d, want ≈300M", m)
	}
	// Spatial chain must end at 7×7 before the classifier.
	lastConv := shapes[len(shapes)-2]
	if lastConv.Name != "conv_last" || lastConv.OutH() != 7 {
		t.Fatalf("last conv wrong: %+v outH=%d", lastConv, lastConv.OutH())
	}
}

func TestGEMMDims(t *testing.T) {
	l := LayerShape{Name: "x", Kind: KindConv, InC: 64, OutC: 128, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 28, InW: 28}
	m, k, n := l.GEMMDims()
	if m != 128 || k != 576 || n != 784 {
		t.Fatalf("GEMM dims = %d,%d,%d", m, k, n)
	}
	dw := LayerShape{Name: "d", Kind: KindDepthwise, InC: 64, OutC: 64, KH: 3, KW: 3, Stride: 1, Pad: 1, InH: 28, InW: 28}
	m, k, n = dw.GEMMDims()
	if m != 64 || k != 9 || n != 784 {
		t.Fatalf("depthwise GEMM dims = %d,%d,%d", m, k, n)
	}
}

func TestRepresentativeLayersSpanStages(t *testing.T) {
	layers := RepresentativeResNet50Layers()
	if len(layers) != 9 {
		t.Fatalf("representative set size %d, want 9", len(layers))
	}
	// Must include early and late stages.
	names := map[string]bool{}
	for _, l := range layers {
		names[l.Name] = true
	}
	for _, want := range []string{"conv1", "conv2_1.b", "conv5_3.c"} {
		if !names[want] {
			t.Fatalf("representative set missing %s", want)
		}
	}
}

func TestTrainableModelsForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, f := range []Family{ResNet, VGG, MobileNet} {
		clf := Build(f, rand.New(rand.NewSource(2)), 10, 1)
		x := tensor.Randn(rng, 1, 2, 3, 16, 16)
		y := clf.Logits(x, false)
		if y.Shape[0] != 2 || y.Shape[1] != 10 {
			t.Fatalf("%s logits shape %v", f, y.Shape)
		}
	}
}

func TestTrainableModelsBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, f := range []Family{ResNet, VGG, MobileNet} {
		clf := Build(f, rand.New(rand.NewSource(4)), 5, 1)
		x := tensor.Randn(rng, 1, 2, 3, 12, 12)
		loss := clf.TrainBatch(x, []int{1, 3})
		if loss <= 0 {
			t.Fatalf("%s loss = %v", f, loss)
		}
		// Every prunable parameter must have received gradient.
		for _, p := range clf.PrunableParams() {
			if p.Grad.CountNonZero() == 0 {
				t.Fatalf("%s param %s has zero gradient", f, p.Name)
			}
		}
	}
}

func TestCompressibilityOrdering(t *testing.T) {
	// ResNet-S must have the most prunable parameters and MobileNet-S the
	// fewest — the over-parameterization ordering behind the paper's Fig. 1.
	count := func(f Family) int {
		clf := Build(f, rand.New(rand.NewSource(5)), 10, 2)
		total := 0
		for _, p := range clf.PrunableParams() {
			total += p.W.Len()
		}
		return total
	}
	r, v, m := count(ResNet), count(VGG), count(MobileNet)
	if !(r > m && v > m) {
		t.Fatalf("expected ResNet-S (%d) and VGG-S (%d) > MobileNet-S (%d)", r, v, m)
	}
}

func TestDepthwiseParamsBlockExempt(t *testing.T) {
	clf := Build(MobileNet, rand.New(rand.NewSource(6)), 10, 1)
	foundDW := false
	for _, p := range clf.PrunableParams() {
		if p.Cols == 9 { // depthwise 3×3 pruning view
			foundDW = true
			if !p.BlockExempt {
				t.Fatalf("depthwise param %s not block-exempt", p.Name)
			}
		}
	}
	if !foundDW {
		t.Fatal("MobileNet-S has no depthwise parameters")
	}
}

func TestHeadNotPrunable(t *testing.T) {
	for _, f := range []Family{ResNet, VGG, MobileNet} {
		clf := Build(f, rand.New(rand.NewSource(7)), 10, 1)
		for _, p := range clf.PrunableParams() {
			if p.Name == "fc.weight" || p.Name == "fc8.weight" {
				t.Fatalf("%s: classifier head %s is prunable", f, p.Name)
			}
		}
	}
}

func TestTransformerForwardBackward(t *testing.T) {
	clf := Build(Transformer, rand.New(rand.NewSource(8)), 6, 1)
	rng := rand.New(rand.NewSource(9))
	x := tensor.Randn(rng, 1, 2, 3, 8, 8)
	y := clf.Logits(x, false)
	if y.Shape[0] != 2 || y.Shape[1] != 6 {
		t.Fatalf("transformer logits %v", y.Shape)
	}
	loss := clf.TrainBatch(x, []int{1, 4})
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	for _, p := range clf.PrunableParams() {
		if p.Grad.CountNonZero() == 0 {
			t.Fatalf("transformer param %s has zero gradient", p.Name)
		}
	}
}

func TestTransformerPrunableProjections(t *testing.T) {
	clf := Build(Transformer, rand.New(rand.NewSource(10)), 6, 1)
	names := map[string]bool{}
	for _, p := range clf.PrunableParams() {
		names[p.Name] = true
	}
	// Patch embedding, all four attention projections and both MLP layers
	// of each block must be prunable.
	for _, want := range []string{
		"patch.weight",
		"block0.attn.wq", "block0.attn.wk", "block0.attn.wv", "block0.attn.wo",
		"block0.fc1.weight", "block0.fc2.weight",
		"block1.attn.wq",
	} {
		if !names[want] {
			t.Fatalf("expected prunable %s; have %v", want, names)
		}
	}
	if names["fc.weight"] {
		t.Fatal("classifier head must not be prunable")
	}
}
