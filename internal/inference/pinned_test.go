package inference

import (
	"math"
	"testing"

	"repro/internal/format"
	"repro/internal/models"
	"repro/internal/tensor"
)

// pinnedEngine is what one family's prunedModel fixture compiles to at one
// precision: the engine's Fingerprint, QuantSignature and MemoryFootprint,
// and a hash of its logits' bits at batch 1 and at batch 16.
type pinnedEngine struct {
	fingerprint, quantSig uint64
	footprint             int64
	logits1, logits16     uint64
}

// TestEngineIdentityPinned holds the compile path to recorded constants: on
// every family at both precisions, prunedModel's fixture compiles to the same
// plans, images and footprint, and answers with the same logits bit for bit,
// as it did when the constants were recorded. A change to how a matrix
// reaches its plan — what it is decoded from, which builder fills it, how a
// slab is sized — must leave every one of them where it is.
//
// The footprints moved once, with the layout: when plan columns went from
// one absolute uint16 an entry to a one-byte offset in a 256-column segment
// the row pointer carries, each footprint moved by exactly
// −(float entries) + 4·Σ Rows·(⌈Cols/256⌉−1) over the float plans, plus
// −(codes) + 8·Σ Rows·(⌈Cols/256⌉−1) over the int8 images. They were, in
// family order, float32 / int8: resnet-s 97 460 / 38 860 (8 704 entries or
// codes, Σ Rows·(⌈Cols/256⌉−1) = 96), vgg-s 45 000 / 17 361 (4 224 entries,
// 4 211 codes, 32), mobilenet-s 26 916 / 25 428 (624 either, 0),
// transformer-s 14 168 / 10 255 (1 088 entries; 256 entries and 829 codes,
// 0). The fingerprints, quant signatures and logits did not move.
func TestEngineIdentityPinned(t *testing.T) {
	want := map[models.Family][2]pinnedEngine{
		models.ResNet: {
			{fingerprint: 0x4d85356d3d4ac50c, footprint: 89140, logits1: 0x19060ff7906548bb, logits16: 0xed631135b1ccf525},
			{fingerprint: 0x4d85356d3d4ac50c, quantSig: 0x86dce0305bbdaae4, footprint: 30924, logits1: 0xda62de51b17433dc, logits16: 0xf8931c488b518039},
		},
		models.VGG: {
			{fingerprint: 0xfeb85cad9e509b0f, footprint: 40904, logits1: 0x9c5d1dcfbe20bdf9, logits16: 0x3dbcab8adc8901},
			{fingerprint: 0xfeb85cad9e509b0f, quantSig: 0x43b8cadc71f95518, footprint: 13406, logits1: 0xef707ceb0f02de73, logits16: 0x8cd0c2fb973c8b45},
		},
		models.MobileNet: {
			{fingerprint: 0xad4e2d38fb4c5cbd, footprint: 26292, logits1: 0x5df13978aa3eb3d2, logits16: 0xb64d81033a332f55},
			{fingerprint: 0xad4e2d38fb4c5cbd, quantSig: 0xc5a086940ab0c3c9, footprint: 24804, logits1: 0xa1889ae0961cc5b9, logits16: 0x287c505774bf8571},
		},
		models.Transformer: {
			{fingerprint: 0x5edbef5019d96f53, footprint: 13080, logits1: 0x4942364aecb1b395, logits16: 0xb1b1ba37fb8ff0ed},
			{fingerprint: 0x5edbef5019d96f53, quantSig: 0x58e0a0587d37f5a9, footprint: 9170, logits1: 0x5473e2d582605ef9, logits16: 0xcaa2ec6f12676b55},
		},
	}
	hash := func(out *tensor.Tensor) uint64 {
		h := format.HashInit
		for _, v := range out.Data {
			h = h.Uint64(math.Float64bits(v))
		}
		return uint64(h)
	}
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		clf, x, nm, b := prunedModel(t, f)
		x1, x16 := batches(t, x)
		for i, prec := range []Precision{Float32, Int8} {
			eng, err := NewWithOptions(clf, b, nm, CompileOptions{Precision: prec})
			if err != nil {
				t.Fatalf("%s at %s: %v", f, prec, err)
			}
			got := pinnedEngine{
				fingerprint: eng.Fingerprint(),
				quantSig:    eng.QuantSignature(),
				footprint:   eng.MemoryFootprint(),
				logits1:     hash(eng.Logits(x1)),
				logits16:    hash(eng.Logits(x16)),
			}
			if got != want[f][i] {
				t.Errorf("%s at %s: got %#v, want %#v", f, prec, got, want[f][i])
			}
		}
	}
}
