package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// mkLayer builds a dense layer with positive random scores.
func mkLayer(rng *rand.Rand, id string, rows, cols int, exempt bool) *Layer {
	scores := tensor.New(rows, cols)
	for i := range scores.Data {
		scores.Data[i] = math.Abs(rng.NormFloat64()) + 1e-3
	}
	return &Layer{
		ID:          id,
		Mask:        tensor.Full(1, rows, cols),
		Scores:      scores,
		BlockExempt: exempt,
	}
}

func defaultCfg() Config {
	return Config{NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, MinKeepBlockCols: 1}
}

func TestConfigValidate(t *testing.T) {
	if err := defaultCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{NM: sparsity.NM{N: 0, M: 4}, BlockSize: 4, MinKeepBlockCols: 1},
		{NM: sparsity.NM{N: 2, M: 4}, BlockSize: 0, MinKeepBlockCols: 1},
		{NM: sparsity.NM{N: 2, M: 4}, BlockSize: 4, MinKeepBlockCols: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestApplyHybridReachesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layers := []*Layer{
		mkLayer(rng, "a", 16, 32, false),
		mkLayer(rng, "b", 8, 24, false),
		mkLayer(rng, "c", 32, 16, false),
	}
	got := ApplyHybrid(layers, defaultCfg(), 0.85)
	if got < 0.82 || got > 0.90 {
		t.Fatalf("achieved sparsity %v, want ≈0.85", got)
	}
	total, nonzero := 0, 0
	for _, l := range layers {
		total += l.Mask.Len()
		nonzero += l.Mask.CountNonZero()
	}
	if m := 1 - float64(nonzero)/float64(total); math.Abs(m-got) > 1e-12 {
		t.Fatalf("reported %v but measured %v", got, m)
	}
}

func TestApplyHybridInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := defaultCfg()
	layers := []*Layer{
		mkLayer(rng, "a", 16, 32, false),
		mkLayer(rng, "dw", 8, 9, true), // exempt, ragged cols
	}
	ApplyHybrid(layers, cfg, 0.8)
	for _, l := range layers {
		if err := sparsity.VerifyNM(l.Mask, cfg.NM); err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		if l.BlockExempt {
			continue
		}
		g := sparsity.NewBlockGrid(l.Mask.Shape[0], l.Mask.Shape[1], cfg.BlockSize)
		if err := sparsity.VerifyRowBalance(l.Mask, g); err != nil {
			t.Fatalf("%s: %v", l.ID, err)
		}
		counts := sparsity.KeptBlocksPerRow(l.Mask, g)
		for _, c := range counts {
			if c < cfg.MinKeepBlockCols {
				t.Fatalf("%s: row kept %d < floor %d", l.ID, c, cfg.MinKeepBlockCols)
			}
		}
	}
}

func TestApplyHybridKappaBelowNMFloorIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	layers := []*Layer{mkLayer(rng, "a", 8, 16, false)}
	got := ApplyHybrid(layers, defaultCfg(), 0.3) // below the 0.5 N:M floor
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("sparsity %v, want exactly the N:M floor 0.5", got)
	}
}

func TestApplyHybridPrunesLeastImportantFirst(t *testing.T) {
	// Layer "cheap" has tiny scores; "precious" has huge scores. Block
	// pruning beyond the N:M floor must hit "cheap" first.
	rng := rand.New(rand.NewSource(4))
	cheap := mkLayer(rng, "cheap", 8, 16, false)
	precious := mkLayer(rng, "precious", 8, 16, false)
	for i := range precious.Scores.Data {
		precious.Scores.Data[i] += 1000
	}
	ApplyHybrid([]*Layer{cheap, precious}, defaultCfg(), 0.6)
	sc := 1 - float64(cheap.Mask.CountNonZero())/float64(cheap.Mask.Len())
	sp := 1 - float64(precious.Mask.CountNonZero())/float64(precious.Mask.Len())
	if sc <= sp {
		t.Fatalf("cheap layer sparsity %v should exceed precious %v", sc, sp)
	}
}

func TestApplyHybridRevivesMaskedWeights(t *testing.T) {
	// Pre-masked entries with top scores must return under the fresh mask
	// (the straight-through revival mechanism).
	rng := rand.New(rand.NewSource(5))
	l := mkLayer(rng, "a", 4, 8, false)
	l.Mask.Zero() // everything pruned before
	for i := range l.Scores.Data {
		l.Scores.Data[i] = float64(i + 1) // deterministic ranking
	}
	ApplyHybrid([]*Layer{l}, defaultCfg(), 0.5)
	if l.Mask.CountNonZero() == 0 {
		t.Fatal("mask not recomputed from scratch")
	}
}

func TestApplyHybridEmpty(t *testing.T) {
	if got := ApplyHybrid(nil, defaultCfg(), 0.9); got != 0 {
		t.Fatalf("empty pool sparsity %v", got)
	}
}

func TestBlockOnlyVia11Pattern(t *testing.T) {
	// NM{1,1} keeps everything → pure balanced block pruning.
	rng := rand.New(rand.NewSource(6))
	cfg := Config{NM: sparsity.NM{N: 1, M: 1}, BlockSize: 4, MinKeepBlockCols: 1}
	layers := []*Layer{mkLayer(rng, "a", 16, 32, false)}
	got := ApplyHybrid(layers, cfg, 0.5)
	if math.Abs(got-0.5) > 0.13 {
		t.Fatalf("block-only sparsity %v, want ≈0.5", got)
	}
	g := sparsity.NewBlockGrid(16, 32, 4)
	if err := sparsity.VerifyRowBalance(layers[0].Mask, g); err != nil {
		t.Fatal(err)
	}
}

// Property: for random layer pools, targets and patterns, ApplyHybrid
// always (a) reaches within one rank-column of the target or exhausts the
// pool, (b) keeps both invariants, (c) never violates the per-layer floor.
func TestApplyHybridProperty(t *testing.T) {
	f := func(seed int64, kappaRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nm := sparsity.NM{N: int(nRaw)%3 + 1, M: 4}
		cfg := Config{NM: nm, BlockSize: 4, MinKeepBlockCols: 1}
		kappa := 0.5 + float64(kappaRaw%45)/100.0 // 0.50..0.94
		layers := []*Layer{
			mkLayer(rng, "a", 8, 16, false),
			mkLayer(rng, "b", 12, 20, false),
			mkLayer(rng, "c", 4, 9, true),
		}
		ApplyHybrid(layers, cfg, kappa)
		for _, l := range layers {
			if sparsity.VerifyNM(l.Mask, nm) != nil {
				return false
			}
			if l.BlockExempt {
				continue
			}
			g := sparsity.NewBlockGrid(l.Mask.Shape[0], l.Mask.Shape[1], cfg.BlockSize)
			if sparsity.VerifyRowBalance(l.Mask, g) != nil {
				return false
			}
			for _, c := range sparsity.KeptBlocksPerRow(l.Mask, g) {
				if c < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher kappa never yields lower sparsity on the same pool.
func TestApplyHybridMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		build := func() []*Layer {
			rng := rand.New(rand.NewSource(seed))
			return []*Layer{mkLayer(rng, "a", 16, 32, false), mkLayer(rng, "b", 8, 24, false)}
		}
		lo := ApplyHybrid(build(), defaultCfg(), 0.6)
		hi := ApplyHybrid(build(), defaultCfg(), 0.9)
		return hi+1e-12 >= lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
