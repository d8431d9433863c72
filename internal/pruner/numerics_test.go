package pruner

import (
	"encoding/binary"
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
			all := make([]int, cfg.NumClasses)
			for i := range all {
				all[i] = i
			}
			base := build()
			Finetune(base, ds.MakeSplit("pretrain", all, 8), 2, 16, nn.NewSGD(0.05, 0.9, 4e-5), rand.New(rand.NewSource(20240609)))
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
// the achieved sparsity and the Fig. 7 FLOPs ratio, which reads each
// layer's input geometry from its last training pass — to the bits one
// fixed short prune produced on each family (CRISP on all four, the
// weight-saliency channel baseline on resnet-s). A change to how layers
// record their geometry, or to how FLOPsRatio reads it, must leave these
// unchanged.
func TestPruneReportPinned(t *testing.T) {
	for _, tc := range []struct {
		family   models.Family
		channel  bool
		sparsity uint64
		flops    uint64
	}{
		{models.ResNet, false, 0x3fe99a37d0e00945, 0x3fd1af223c171265},
		{models.VGG, false, 0x3fe9abe9fceb16ac, 0x3fc4785ac257ccb4},
		{models.MobileNet, false, 0x3fe9b8c8e6e3239c, 0x3fcc833546b8fd30},
		{models.Transformer, false, 0x3fe9af286bca1af2, 0x3fceb43c9c4fc033},
		{models.ResNet, true, 0x3fe9a1f183d07d27, 0x3fd6e0ce9d156fa8},
	} {
		name := string(tc.family)
		if tc.channel {
			name += "/channel"
		}
		t.Run(name, func(t *testing.T) {
			cfg := data.Config{Name: "pin", NumClasses: 4, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 44}
			train := data.New(cfg).MakeSplit("train", []int{0, 2}, 8)
			clf := models.Build(tc.family, rand.New(rand.NewSource(45)), cfg.NumClasses, 1)
			opts := Options{Target: 0.8, NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, Iterations: 1, FinetuneEpochs: 1, BatchSize: 8}
			var rep Report
			if tc.channel {
				rep = NewChannel(opts).Prune(clf, train)
			} else {
				rep = NewCRISP(opts).Prune(clf, train)
			}
			if got := math.Float64bits(rep.AchievedSparsity); got != tc.sparsity {
				t.Errorf("achieved sparsity %v (%#x), want %v (%#x)", rep.AchievedSparsity, got, math.Float64frombits(tc.sparsity), tc.sparsity)
			}
			if got := math.Float64bits(rep.FLOPsRatio); got != tc.flops {
				t.Errorf("FLOPs ratio %v (%#x), want %v (%#x)", rep.FLOPsRatio, got, math.Float64frombits(tc.flops), tc.flops)
			}
		})
	}
}
