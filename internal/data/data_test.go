package data

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func smallCfg() Config {
	return Config{Name: "t", NumClasses: 10, Channels: 2, H: 8, W: 8, Noise: 0.2, Jitter: 1, Seed: 7}
}

func TestDeterministicPrototypes(t *testing.T) {
	a := New(smallCfg())
	b := New(smallCfg())
	for c := 0; c < 10; c++ {
		pa, pb := a.protos[c], b.protos[c]
		for i := range pa.Data {
			if pa.Data[i] != pb.Data[i] {
				t.Fatalf("prototype %d differs at %d", c, i)
			}
		}
	}
}

func TestPrototypesDistinct(t *testing.T) {
	d := New(smallCfg())
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			diff := 0.0
			pi, pj := d.protos[i], d.protos[j]
			for k := range pi.Data {
				diff += math.Abs(pi.Data[k] - pj.Data[k])
			}
			if diff < 1e-6 {
				t.Fatalf("prototypes %d and %d are identical", i, j)
			}
		}
	}
}

func TestMakeSplitShapeAndLabels(t *testing.T) {
	d := New(smallCfg())
	s := d.MakeSplit("train", []int{3, 5}, 4)
	if s.Len() != 8 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.X.Shape[0] != 8 || s.X.Shape[1] != 2 || s.X.Shape[2] != 8 || s.X.Shape[3] != 8 {
		t.Fatalf("shape %v", s.X.Shape)
	}
	for i := 0; i < 4; i++ {
		if s.Labels[i] != 3 {
			t.Fatalf("label[%d] = %d", i, s.Labels[i])
		}
	}
	for i := 4; i < 8; i++ {
		if s.Labels[i] != 5 {
			t.Fatalf("label[%d] = %d", i, s.Labels[i])
		}
	}
}

func TestSplitDeterministicAndStreamsDiffer(t *testing.T) {
	d := New(smallCfg())
	a := d.MakeSplit("train", []int{1}, 3)
	b := d.MakeSplit("train", []int{1}, 3)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same stream must be deterministic")
		}
	}
	c := d.MakeSplit("test", []int{1}, 3)
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("train and test streams must differ")
	}
}

func TestSplitIndependentOfClassOrder(t *testing.T) {
	d := New(smallCfg())
	a := d.MakeSplit("train", []int{2, 7}, 2)
	b := d.MakeSplit("train", []int{7, 2}, 2)
	// Class 2's samples must be identical regardless of position.
	vol := 2 * 8 * 8
	for i := 0; i < 2*vol; i++ {
		if a.X.Data[i] != b.X.Data[2*vol+i] {
			t.Fatal("class samples depend on class order")
		}
	}
}

func TestSamplesClusterAroundPrototype(t *testing.T) {
	cfg := smallCfg()
	cfg.Jitter = 0 // isolate noise behaviour
	d := New(cfg)
	s := d.MakeSplit("train", []int{0}, 64)
	p := d.protos[0]
	vol := len(p.Data)
	// Mean over samples should approach the prototype.
	mean := make([]float64, vol)
	for b := 0; b < 64; b++ {
		for i := 0; i < vol; i++ {
			mean[i] += s.X.Data[b*vol+i]
		}
	}
	maxErr := 0.0
	for i := range mean {
		mean[i] /= 64
		if e := math.Abs(mean[i] - p.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.25 {
		t.Fatalf("sample mean deviates from prototype by %v", maxErr)
	}
}

func TestUserClassesDistinctAndDeterministic(t *testing.T) {
	d := New(smallCfg())
	a := d.UserClasses(42, 5)
	b := d.UserClasses(42, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("UserClasses must be deterministic")
		}
	}
	seen := map[int]bool{}
	for _, c := range a {
		if seen[c] {
			t.Fatal("duplicate class")
		}
		if c < 0 || c >= 10 {
			t.Fatalf("class %d out of range", c)
		}
		seen[c] = true
	}
}

func TestBatchesCoverAllSamplesOnce(t *testing.T) {
	d := New(smallCfg())
	s := d.MakeSplit("train", []int{0, 1, 2}, 5)
	vol := len(s.X.Data) / s.Len()
	rng := rand.New(rand.NewSource(1))
	var counts [2][3]int
	var seen [2][15]int
	total := 0
	Batches(rng, s, 4, 2, func(epoch int, x *tensor.Tensor, labels []int) {
		if epoch != total/15 {
			t.Fatalf("sample %d arrived in epoch %d", total, epoch)
		}
		if x.Shape[0] != len(labels) {
			t.Fatalf("batch shape %v vs %d labels", x.Shape, len(labels))
		}
		if x.Shape[0] > 4 {
			t.Fatalf("batch larger than requested: %d", x.Shape[0])
		}
		for i, l := range labels {
			counts[epoch][l]++
			total++
			// The row must be one sample of the split, carrying its own label.
			row := x.Data[i*vol : (i+1)*vol]
			b := -1
			for j := 0; j < s.Len() && b < 0; j++ {
				if slices.Equal(row, s.X.Data[j*vol:(j+1)*vol]) {
					b = j
				}
			}
			if b < 0 || s.Labels[b] != l {
				t.Fatalf("epoch %d: batch row %d (label %d) is not a sample of the split with that label", epoch, i, l)
			}
			seen[epoch][b]++
		}
	})
	if total != 30 {
		t.Fatalf("saw %d samples in two epochs, want 30", total)
	}
	for e := range counts {
		for c := range counts[e] {
			if counts[e][c] != 5 {
				t.Fatalf("epoch %d: class %d seen %d times, want 5", e, c, counts[e][c])
			}
		}
		for b, n := range seen[e] {
			if n != 1 {
				t.Fatalf("epoch %d: sample %d seen %d times, want 1", e, b, n)
			}
		}
	}
}

func TestSubsetAndSample(t *testing.T) {
	d := New(smallCfg())
	s := d.MakeSplit("train", []int{4, 6}, 3)
	sub := s.Subset([]int{0, 5})
	if sub.Len() != 2 || sub.Labels[0] != 4 || sub.Labels[1] != 6 {
		t.Fatalf("subset labels %v", sub.Labels)
	}
	x, l := s.Sample(5)
	if l != 6 {
		t.Fatalf("sample label %d", l)
	}
	for i := range x.Data {
		if x.Data[i] != sub.X.Data[len(x.Data)+i] {
			t.Fatal("Sample/Subset disagree")
		}
	}
}

// Property: every generated sample is finite.
func TestSamplesFiniteProperty(t *testing.T) {
	d := New(smallCfg())
	f := func(classRaw uint8, perClassRaw uint8) bool {
		class := int(classRaw) % 10
		perClass := int(perClassRaw)%4 + 1
		s := d.MakeSplit("q", []int{class}, perClass)
		for _, v := range s.X.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
