package data

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestMakeSplitAllocs: a split costs its tensor, its labels and one RNG per
// class — nothing per sample and nothing per pixel, so a 16×16 image costs
// the objects an 8×8 one does. (gen once called the variadic Tensor.At for
// every pixel: 192 index slices per 3×8×8 sample.)
func TestMakeSplitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	classes := []int{0, 2, 3}
	var objects [2]float64
	for i, side := range []int{8, 16} {
		ds := New(Config{Name: "alloc", NumClasses: 4, Channels: 3, H: side, W: side, Noise: 0.25, Jitter: 1, Seed: 5})
		objects[i] = testing.AllocsPerRun(10, func() { ds.MakeSplit("user", classes, 8) })
	}
	if budget := float64(2*len(classes) + 4); objects[0] > budget || objects[1] != objects[0] {
		t.Fatalf("MakeSplit allocates %.0f objects at 8×8 and %.0f at 16×16, want the same count, at most %.0f", objects[0], objects[1], budget)
	}
}

// TestBatchesAllocateOnlyTheirPermutations: one batch tensor and one label
// slice carry every batch of every epoch, so an epoch costs its shuffle's
// permutation and nothing per batch: three epochs allocate two objects more
// than one.
func TestBatchesAllocateOnlyTheirPermutations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds := New(Config{Name: "alloc", NumClasses: 4, Channels: 3, H: 8, W: 8, Noise: 0.25, Jitter: 1, Seed: 5})
	s := ds.MakeSplit("user", []int{0, 2, 3}, 8) // 24 samples: batches of 16 and 8
	rng := rand.New(rand.NewSource(1))
	var objects [2]float64
	for i, epochs := range []int{1, 3} {
		objects[i] = testing.AllocsPerRun(10, func() {
			Batches(rng, s, 16, epochs, func(int, *tensor.Tensor, []int) {})
		})
	}
	if objects[1]-objects[0] != 2 {
		t.Fatalf("Batches allocates %.0f objects over one epoch and %.0f over three, want two more", objects[0], objects[1])
	}
}
