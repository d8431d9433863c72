package pruner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// modelHash is FNV-64a over the bits of every weight, every mask (a dense
// parameter hashes as "no mask") and every batch-norm running statistic, in
// Params / Walk order.
func modelHash(clf *nn.Classifier) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(t *tensor.Tensor) {
		for _, v := range t.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, p := range clf.Params() {
		put(p.W)
		if p.Mask == nil {
			h.Write([]byte{0})
			continue
		}
		h.Write([]byte{1})
		put(p.Mask)
	}
	nn.Walk(clf.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			put(bn.RunMean)
			put(bn.RunVar)
		}
	})
	return h.Sum64()
}

// TestTrainingNumericsPinned holds the whole training path — im2col, the
// three GEMM cases, every layer's forward and backward, SGD, the saliency
// pass and the hybrid mask construction — to the bits it produced before
// the dense kernels were register-blocked. The shapes are the repository
// benchmark's fixture (width-2 models, 3×8×8, 2:4, block 4, target 0.9),
// so an exact user_acc there is a consequence of this test, not a surprise.
// The pre-train is Pretrain, the one recipe every entry point shares, at
// the fixture's epochs, samples per class and seed.
//
// The constants were recorded at the parent of the kernel change. A kernel
// or layer edit that moves them changed training arithmetic: that is a
// paper-numbers change and needs its own justification, not a new constant.
func TestTrainingNumericsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale prune+fine-tune path (short mode)")
	}
	for _, tc := range []struct {
		family       models.Family
		pretrained   uint64
		personalized uint64
	}{
		{models.ResNet, 0xab17f025d08c28d0, 0x1aba8e5b84592195},
		{models.Transformer, 0xc1ee4486b4d943d7, 0x0dd1b96f3bb833ee},
	} {
		t.Run(string(tc.family), func(t *testing.T) {
			cfg := data.Config{Name: "bench", NumClasses: 10, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 20240607}
			ds := data.New(cfg)
			build := func() *nn.Classifier {
				return models.Build(tc.family, rand.New(rand.NewSource(20240608)), cfg.NumClasses, 2)
			}
			base := build()
			Pretrain(base, ds, 2, 8, 20240609)
			if got := modelHash(base); got != tc.pretrained {
				t.Errorf("pre-trained model hash %#x, want %#x", got, tc.pretrained)
			}

			clone := build()
			base.CloneWeightsTo(clone)
			NewCRISP(Options{
				Target: 0.9, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4,
				Iterations: 1, FinetuneEpochs: 1, BatchSize: 16,
			}).Prune(clone, ds.MakeSplit("serve-train/1,4,7", []int{1, 4, 7}, 8))
			if got := modelHash(clone); got != tc.personalized {
				t.Errorf("personalized model hash %#x, want %#x", got, tc.personalized)
			}
		})
	}
}

// TestPruneReportPinned holds what a prune reports back from the layers —
// the achieved sparsity, the Fig. 7 FLOPs ratio, which reads each layer's
// input geometry from its last training pass, and every round's κ_p,
// measured sparsity and fine-tuning loss — to the bits one fixed short
// prune produced. CRISP runs one round on all four families and the
// weight-saliency channel baseline one round on resnet-s; then every
// pruner — CRISP, channel, N:M-only, balanced and unbalanced blocks, and
// mixed N:M at κ 0.7 — runs two rounds on resnet-s and transformer-s, so
// the κ ramp runs. A change to how layers record their geometry, to how
// FLOPsRatio reads it, or to the prune loop the pruners share must leave
// these unchanged.
func TestPruneReportPinned(t *testing.T) {
	type pinned interface {
		Prune(clf *nn.Classifier, train data.Split) Report
	}
	methods := map[string]func(Options) pinned{
		"crisp":            func(o Options) pinned { return NewCRISP(o) },
		"channel":          func(o Options) pinned { return NewChannel(o) },
		"nm-only":          func(o Options) pinned { return NewNMOnly(o) },
		"block-balanced":   func(o Options) pinned { return NewBlockOnly(o, true) },
		"block-unbalanced": func(o Options) pinned { return NewBlockOnly(o, false) },
		"mixed-nm":         func(o Options) pinned { return NewMixedNM(o) },
	}
	for _, tc := range []struct {
		family     models.Family
		method     string
		target     float64
		iterations int
		sparsity   uint64
		flops      uint64
		rounds     [][3]uint64 // per round: κ_p, measured sparsity, loss
	}{
		{models.ResNet, "crisp", 0.8, 1, 0x3fe99a37d0e00945, 0x3fd1af223c171265, [][3]uint64{{0x3fe999999999999a, 0x3fe99a37d0e00945, 0x4000b307039f0932}}},
		{models.VGG, "crisp", 0.8, 1, 0x3fe9abe9fceb16ac, 0x3fc4785ac257ccb4, [][3]uint64{{0x3fe999999999999a, 0x3fe9abe9fceb16ac, 0x4002dad5d14d65cd}}},
		{models.MobileNet, "crisp", 0.8, 1, 0x3fe9b8c8e6e3239c, 0x3fcc833546b8fd30, [][3]uint64{{0x3fe999999999999a, 0x3fe9b8c8e6e3239c, 0x3ff827003e2c36f1}}},
		{models.Transformer, "crisp", 0.8, 1, 0x3fe9af286bca1af2, 0x3fceb43c9c4fc033, [][3]uint64{{0x3fe999999999999a, 0x3fe9af286bca1af2, 0x3ff7d032a14eaf59}}},
		{models.ResNet, "channel", 0.8, 1, 0x3fe9a1f183d07d27, 0x3fd6e0ce9d156fa8, [][3]uint64{{0x3fe999999999999a, 0x3fe9a1f183d07d27, 0x4000b307039f0932}}},
		{models.ResNet, "crisp", 0.8, 2, 0x3fe99a37d0e00945, 0x3fd0d2bef2065edf, [][3]uint64{{0x3fe4cccccccccccd, 0x3fe4d8b274d8b275, 0x4000b307039f0932}, {0x3fe999999999999a, 0x3fe99a37d0e00945, 0x3ff33a0d0e3bbb0e}}},
		{models.ResNet, "channel", 0.8, 2, 0x3fe99c263d9c263e, 0x3fc29860a6358c20, [][3]uint64{{0x3fd999999999999a, 0x3fd9ae4dd5513690, 0x4000b307039f0932}, {0x3fe999999999999a, 0x3fe99c263d9c263e, 0x3ff3538bc8b1a224}}},
		{models.ResNet, "nm-only", 0.8, 2, 0x3fdffce8eb9fd1a6, 0x3fe00421dc96b691, [][3]uint64{{0x3fe0000000000000, 0x3fdffce8eb9fd1a6, 0x4000b307039f0932}, {0x3fe0000000000000, 0x3fdffce8eb9fd1a6, 0x3ff3c4bbf297390a}}},
		{models.ResNet, "block-balanced", 0.8, 2, 0x3fe9a37d0e009454, 0x3fd1830e607a21b1, [][3]uint64{{0x3fd999999999999a, 0x3fd9c8920282c08e, 0x4000b307039f0932}, {0x3fe999999999999a, 0x3fe9a37d0e009454, 0x3ff29089f33e7895}}},
		{models.ResNet, "block-unbalanced", 0.8, 2, 0x3fe99a37d0e00945, 0x3fd541be490f9505, [][3]uint64{{0x3fd999999999999a, 0x3fd99d4ee54037a0, 0x4000b307039f0932}, {0x3fe999999999999a, 0x3fe99a37d0e00945, 0x3ff2157c77c89afa}}},
		{models.ResNet, "mixed-nm", 0.7, 2, 0x3fe66d81e2106a9c, 0x3fd722ec6680d8b7, [][3]uint64{{0x3fde666666666666, 0x3fdfa034885a6314, 0x4000b307039f0932}, {0x3fe6666666666666, 0x3fe66d81e2106a9c, 0x3ff2ae6a6447c549}}},
		{models.Transformer, "crisp", 0.8, 2, 0x3fe9af286bca1af2, 0x3fceb43c9c4fc033, [][3]uint64{{0x3fe4cccccccccccd, 0x3fe4d79435e50d7a, 0x3ff7d032a14eaf59}, {0x3fe999999999999a, 0x3fe9af286bca1af2, 0x3fe82acdf58a05c7}}},
		{models.Transformer, "channel", 0.8, 2, 0x3fe9af286bca1af2, 0x3fceb43c9c4fc033, [][3]uint64{{0x3fd999999999999a, 0x3fd9e50d79435e50, 0x3ff7d032a14eaf59}, {0x3fe999999999999a, 0x3fe9af286bca1af2, 0x3fe9372bc7895741}}},
		{models.Transformer, "nm-only", 0.8, 2, 0x3fe0000000000000, 0x3fe0d8ec0ff33d68, [][3]uint64{{0x3fe0000000000000, 0x3fe0000000000000, 0x3ff7d032a14eaf59}, {0x3fe0000000000000, 0x3fe0000000000000, 0x3fe7e57f2e4b4f0c}}},
		{models.Transformer, "block-balanced", 0.8, 2, 0x3fe9af286bca1af2, 0x3fceb43c9c4fc033, [][3]uint64{{0x3fd999999999999a, 0x3fda1af286bca1b0, 0x3ff7d032a14eaf59}, {0x3fe999999999999a, 0x3fe9af286bca1af2, 0x3fe45498a490847d}}},
		{models.Transformer, "block-unbalanced", 0.8, 2, 0x3fe9af286bca1af2, 0x3fceb43c9c4fc033, [][3]uint64{{0x3fd999999999999a, 0x3fd9af286bca1af2, 0x3ff7d032a14eaf59}, {0x3fe999999999999a, 0x3fe9af286bca1af2, 0x3fea540dd33a04af}}},
		{models.Transformer, "mixed-nm", 0.7, 2, 0x3fe6bca1af286bca, 0x3fd4ef40991f1a51, [][3]uint64{{0x3fde666666666666, 0x3fe06bca1af286bc, 0x3ff7d032a14eaf59}, {0x3fe6666666666666, 0x3fe6bca1af286bca, 0x3fe856d1432cf4f1}}},
	} {
		name := string(tc.family)
		if tc.method != "crisp" || tc.iterations > 1 {
			name += "/" + tc.method
		}
		if tc.iterations > 1 {
			name += fmt.Sprintf("/%d-rounds", tc.iterations)
		}
		t.Run(name, func(t *testing.T) {
			cfg := data.Config{Name: "pin", NumClasses: 4, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 44}
			train := data.New(cfg).MakeSplit("train", []int{0, 2}, 8)
			clf := models.Build(tc.family, rand.New(rand.NewSource(45)), cfg.NumClasses, 1)
			opts := Options{Target: tc.target, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, Iterations: tc.iterations, FinetuneEpochs: 1, BatchSize: 8}
			rep := methods[tc.method](opts).Prune(clf, train)
			check := func(what string, v float64, want uint64) {
				t.Helper()
				if got := math.Float64bits(v); got != want {
					t.Errorf("%s %v (%#x), want %v (%#x)", what, v, got, math.Float64frombits(want), want)
				}
			}
			check("achieved sparsity", rep.AchievedSparsity, tc.sparsity)
			check("FLOPs ratio", rep.FLOPsRatio, tc.flops)
			if len(rep.Iterations) != len(tc.rounds) {
				t.Fatalf("%d rounds reported, want %d", len(rep.Iterations), len(tc.rounds))
			}
			for i, it := range rep.Iterations {
				check(fmt.Sprintf("round %d κ", i+1), it.Kappa, tc.rounds[i][0])
				check(fmt.Sprintf("round %d sparsity", i+1), it.Sparsity, tc.rounds[i][1])
				check(fmt.Sprintf("round %d loss", i+1), it.Loss, tc.rounds[i][2])
			}
		})
	}
}
