// Package models provides (a) exact layer-shape tables of the three networks
// the CRISP paper evaluates — ResNet-50, VGG-16 and MobileNetV2 at ImageNet
// resolution — used by the FLOPs, metadata and accelerator experiments, and
// (b) scaled-down trainable versions of the same architecture families used
// by the accuracy experiments on the synthetic datasets (package data).
package models

import "fmt"

// LayerKind distinguishes the layer types the hardware model cares about.
type LayerKind int

const (
	// KindConv is a standard convolution.
	KindConv LayerKind = iota
	// KindDepthwise is a depthwise (per-channel) convolution.
	KindDepthwise
	// KindLinear is a fully connected layer.
	KindLinear
)

// String implements fmt.Stringer.
func (k LayerKind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindDepthwise:
		return "dwconv"
	case KindLinear:
		return "linear"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// LayerShape describes one layer's geometry; enough to derive GEMM
// dimensions, parameter counts and MACs. Linear layers use InC/OutC with
// KH=KW=InH=InW=Stride=1.
type LayerShape struct {
	Name      string
	Kind      LayerKind
	InC, OutC int
	KH, KW    int
	Stride    int
	Pad       int
	InH, InW  int
}

// OutH returns the output height.
func (l LayerShape) OutH() int { return (l.InH+2*l.Pad-l.KH)/l.Stride + 1 }

// OutW returns the output width.
func (l LayerShape) OutW() int { return (l.InW+2*l.Pad-l.KW)/l.Stride + 1 }

// Params returns the weight count (biases excluded; they are negligible and
// unpruned).
func (l LayerShape) Params() int64 {
	switch l.Kind {
	case KindDepthwise:
		return int64(l.OutC) * int64(l.KH) * int64(l.KW)
	default:
		return int64(l.OutC) * int64(l.InC) * int64(l.KH) * int64(l.KW)
	}
}

// GEMMDims returns the implicit-GEMM dimensions (M = output rows,
// K = reduction, N = output positions) used by the accelerator model.
// Depthwise layers map to per-channel GEMV-like work: M = OutC, K = KH*KW,
// N = OutH*OutW.
func (l LayerShape) GEMMDims() (m, k, n int) {
	switch l.Kind {
	case KindDepthwise:
		return l.OutC, l.KH * l.KW, l.OutH() * l.OutW()
	case KindLinear:
		return l.OutC, l.InC, 1
	default:
		return l.OutC, l.InC * l.KH * l.KW, l.OutH() * l.OutW()
	}
}

// conv is a shorthand constructor used by the spec builders.
func conv(name string, inC, outC, k, stride, pad, inH int) LayerShape {
	return LayerShape{Name: name, Kind: KindConv, InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad, InH: inH, InW: inH}
}

// ResNet50Shapes returns every convolution of ResNet-50 at 224×224 plus the
// final classifier, in execution order.
func ResNet50Shapes() []LayerShape {
	var out []LayerShape
	out = append(out, conv("conv1", 3, 64, 7, 2, 3, 224))

	// Bottleneck stages: (mid channels, out channels, blocks, input spatial
	// size after the stem's 3×3/2 max pool).
	type stage struct {
		mid, outC, blocks, inH, stride int
	}
	stages := []stage{
		{64, 256, 3, 56, 1},
		{128, 512, 4, 56, 2},
		{256, 1024, 6, 28, 2},
		{512, 2048, 3, 14, 2},
	}
	inC := 64
	for si, st := range stages {
		h := st.inH
		for b := 0; b < st.blocks; b++ {
			stride := 1
			if b == 0 {
				stride = st.stride
			}
			prefix := fmt.Sprintf("conv%d_%d", si+2, b+1)
			out = append(out, conv(prefix+".a", inC, st.mid, 1, 1, 0, h))
			out = append(out, conv(prefix+".b", st.mid, st.mid, 3, stride, 1, h))
			hb := (h+2-3)/stride + 1
			out = append(out, conv(prefix+".c", st.mid, st.outC, 1, 1, 0, hb))
			if b == 0 {
				out = append(out, conv(prefix+".proj", inC, st.outC, 1, stride, 0, h))
			}
			inC = st.outC
			h = hb
		}
	}
	out = append(out, LayerShape{Name: "fc", Kind: KindLinear, InC: 2048, OutC: 1000, KH: 1, KW: 1, Stride: 1, InH: 1, InW: 1})
	return out
}

// VGG16Shapes returns the 13 convolutions and 3 fully connected layers of
// VGG-16 at 224×224.
func VGG16Shapes() []LayerShape {
	cfg := []struct {
		c, n, inH int
	}{
		{64, 2, 224}, {128, 2, 112}, {256, 3, 56}, {512, 3, 28}, {512, 3, 14},
	}
	inC := 3
	var out []LayerShape
	li := 1
	for _, blk := range cfg {
		for i := 0; i < blk.n; i++ {
			out = append(out, conv(fmt.Sprintf("conv%d_%d", li, i+1), inC, blk.c, 3, 1, 1, blk.inH))
			inC = blk.c
		}
		li++
	}
	out = append(out,
		LayerShape{Name: "fc6", Kind: KindLinear, InC: 512 * 7 * 7, OutC: 4096, KH: 1, KW: 1, Stride: 1, InH: 1, InW: 1},
		LayerShape{Name: "fc7", Kind: KindLinear, InC: 4096, OutC: 4096, KH: 1, KW: 1, Stride: 1, InH: 1, InW: 1},
		LayerShape{Name: "fc8", Kind: KindLinear, InC: 4096, OutC: 1000, KH: 1, KW: 1, Stride: 1, InH: 1, InW: 1},
	)
	return out
}

// MobileNetV2Shapes returns MobileNetV2's layers at 224×224: the stem, all
// inverted-residual bottlenecks (expand / depthwise / project), the final
// 1×1 conv and the classifier.
func MobileNetV2Shapes() []LayerShape {
	var out []LayerShape
	out = append(out, conv("stem", 3, 32, 3, 2, 1, 224))
	// (expansion t, out channels c, repeats n, first stride s)
	cfg := []struct{ t, c, n, s int }{
		{1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
		{6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
	}
	inC, h := 32, 112
	bi := 1
	for _, blk := range cfg {
		for i := 0; i < blk.n; i++ {
			stride := 1
			if i == 0 {
				stride = blk.s
			}
			prefix := fmt.Sprintf("block%d", bi)
			exp := inC * blk.t
			if blk.t != 1 {
				out = append(out, conv(prefix+".expand", inC, exp, 1, 1, 0, h))
			}
			out = append(out, LayerShape{Name: prefix + ".dw", Kind: KindDepthwise, InC: exp, OutC: exp, KH: 3, KW: 3, Stride: stride, Pad: 1, InH: h, InW: h})
			ho := (h+2-3)/stride + 1
			out = append(out, conv(prefix+".project", exp, blk.c, 1, 1, 0, ho))
			inC, h = blk.c, ho
			bi++
		}
	}
	out = append(out, conv("conv_last", 320, 1280, 1, 1, 0, 7))
	out = append(out, LayerShape{Name: "fc", Kind: KindLinear, InC: 1280, OutC: 1000, KH: 1, KW: 1, Stride: 1, InH: 1, InW: 1})
	return out
}

// RepresentativeResNet50Layers returns the subset of ResNet-50 layers used
// in the paper's Fig. 8 style layer-wise hardware comparison: a spread of
// early (large spatial, few channels) through late (small spatial, many
// channels) convolutions.
func RepresentativeResNet50Layers() []LayerShape {
	want := map[string]bool{
		"conv1": true, "conv2_1.b": true, "conv2_3.c": true,
		"conv3_2.b": true, "conv3_4.c": true, "conv4_2.b": true,
		"conv4_6.c": true, "conv5_1.b": true, "conv5_3.c": true,
	}
	var out []LayerShape
	for _, l := range ResNet50Shapes() {
		if want[l.Name] {
			out = append(out, l)
		}
	}
	return out
}
