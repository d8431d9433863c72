package data

import "testing"

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
