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

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		src := trainedModel(t, f, 10)
		var buf bytes.Buffer
		if err := Save(&buf, src); err != nil {
			t.Fatalf("%s: save: %v", f, err)
		}
		dst := models.Build(f, rand.New(rand.NewSource(99)), 6, 1)
		if err := Load(&buf, dst); err != nil {
			t.Fatalf("%s: load: %v", f, err)
		}
		// Outputs must match exactly (weights, masks and BN stats restored).
		rng := rand.New(rand.NewSource(11))
		x := tensor.Randn(rng, 1, 2, 3, 8, 8)
		ya := src.Logits(x, false)
		yb := dst.Logits(x, false)
		if !tensor.Equal(ya, yb, 0) {
			t.Fatalf("%s: restored model disagrees", f)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	src := trainedModel(t, models.ResNet, 12)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := models.Build(models.VGG, rand.New(rand.NewSource(1)), 6, 1)
	if err := Load(&buf, dst); err == nil {
		t.Fatal("cross-architecture load accepted")
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(2)), 6, 1)
	if err := Load(bytes.NewReader([]byte("NOPE....")), dst); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := Load(bytes.NewReader(nil), dst); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	src := trainedModel(t, models.ResNet, 13)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, len(full) / 3, len(full) - 1} {
		dst := models.Build(models.ResNet, rand.New(rand.NewSource(3)), 6, 1)
		if err := Load(bytes.NewReader(full[:cut]), dst); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestMaskAbsencePreserved(t *testing.T) {
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(14)), 6, 1)
	var buf bytes.Buffer
	if err := Save(&buf, clf); err != nil {
		t.Fatal(err)
	}
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(15)), 6, 1)
	// Give dst a mask that the load must clear.
	dst.PrunableParams()[0].EnsureMask()
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for _, p := range dst.Params() {
		if p.Mask != nil {
			t.Fatalf("mask on %s not cleared", p.Name)
		}
	}
}

// TestPackUnpackBits: mask bits go to and from the chunk LSB first, 8 per
// byte, exactly as the reference's packBits lays them out — for a ragged
// tail and for a mask that spans several chunks.
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
		br := &dec{r: &buf}
		br.bits(out)
		if br.err != nil {
			t.Fatal(br.err)
		}
		for i := range vals {
			if out[i] != vals[i] {
				t.Fatalf("bit %d of %d: %v != %v", i, len(vals), out[i], vals[i])
			}
		}
	}
}
