package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// trainedModel returns a model with non-trivial weights, masks and BN stats.
func trainedModel(t *testing.T, f models.Family, seed int64) *nn.Classifier {
	t.Helper()
	clf := models.Build(f, rand.New(rand.NewSource(seed)), 6, 1)
	rng := rand.New(rand.NewSource(seed + 1))
	x := tensor.Randn(rng, 1, 4, 3, 8, 8)
	clf.TrainBatch(x, []int{0, 1, 2, 3})
	nn.ZeroGrad(clf.Params())
	// Mask part of the first prunable layer.
	m := clf.PrunableParams()[0].EnsureMask()
	for i := 0; i < m.Len(); i += 3 {
		m.Data[i] = 0
	}
	return clf
}

// TestPackUnpackBits: mask bits go into the chunk LSB first, 8 per byte,
// exactly as the reference's packBits lays them out, and the delta reader's
// unpackMask reads them back in that order — for a ragged tail and for a
// mask that spans several chunks.
func TestPackUnpackBits(t *testing.T) {
	long := make([]float64, 8*chunk+8*100+3)
	rng := rand.New(rand.NewSource(16))
	for i := range long {
		long[i] = float64(rng.Intn(2))
	}
	for _, vals := range [][]float64{{1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1}, long} {
		var buf bytes.Buffer
		bw := &enc{w: &buf}
		bw.bits(vals)
		if err := bw.finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), packBits(vals)) {
			t.Fatalf("%d bits packed differently from the reference", len(vals))
		}
		out := make([]float64, len(vals))
		(&DeltaView{delta: buf.Bytes()}).unpackMask(deltaEntry{}, out)
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("bit %d of %d: %v != %v", i, len(vals), out[i], vals[i])
			}
		}
	}
}
