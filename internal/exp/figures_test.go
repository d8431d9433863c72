package exp

import (
	"flag"
	"testing"

	"repro/internal/models"
)

// fullScale opts the slow training figures in: `go test ./internal/exp
// -full` is the nightly path. Without it (and in -short mode) the heavy
// end-to-end figure regenerations are skipped so tier-1 stays fast; the
// cheap analytical figures and harness tests always run.
var fullScale = flag.Bool("full", false, "run the full-scale training figures (nightly path)")

// skipHeavy skips a training-based figure test unless -full was passed.
func skipHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("training experiment (short mode)")
	}
	if !*fullScale {
		t.Skip("training experiment; pass -full (nightly path) to run")
	}
}

// The training-based figures are exercised end to end at quick scale. They
// are the slowest tests in the repository; each asserts the paper's
// qualitative claim, not absolute accuracy.

func TestFigure1Shape(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rows, tb := h.Figure1()
	if len(rows) != 9 { // 3 families × 3 ratios
		t.Fatalf("rows %d, want 9", len(rows))
	}
	if len(tb.Rows) != len(rows) {
		t.Fatal("table mismatch")
	}
	for _, r := range rows {
		if r.Accuracy < 0 || r.Accuracy > 1 || r.DenseAcc < 0 || r.DenseAcc > 1 {
			t.Fatalf("accuracy out of range: %+v", r)
		}
	}
	// Fig 1's claim: at 1:4, the compact MobileNet's gap to its dense
	// reference is at least as large as the over-parameterized ResNet's.
	gap := map[models.Family]float64{}
	for _, r := range rows {
		if r.NM.N == 1 {
			gap[r.Family] = r.DenseAcc - r.Accuracy
		}
	}
	if gap[models.MobileNet] < gap[models.ResNet]-0.15 {
		t.Fatalf("compact-model gap (%v) unexpectedly below resnet gap (%v)",
			gap[models.MobileNet], gap[models.ResNet])
	}
}

func TestFigure2NonUniform(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rows, _ := h.Figure2()
	if len(rows) < 5 {
		t.Fatalf("too few layers: %d", len(rows))
	}
	minS, maxS := 1.0, 0.0
	for _, r := range rows {
		if r.Sparsity < 0 || r.Sparsity > 1 {
			t.Fatalf("sparsity out of range: %+v", r)
		}
		if r.Sparsity < minS {
			minS = r.Sparsity
		}
		if r.Sparsity > maxS {
			maxS = r.Sparsity
		}
	}
	// The paper's point: the distribution is non-uniform.
	if maxS-minS < 0.05 {
		t.Fatalf("layer sparsity too uniform: [%v, %v]", minS, maxS)
	}
}

func TestFigure3CRISPBeatsBlockAtHighSparsity(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rows, _ := h.Figure3()
	// Compare the canonical curves: crisp 2:4 B=4 vs block B=4.
	acc := map[string]map[float64]float64{"crisp": {}, "block": {}}
	for _, r := range rows {
		if r.Block != 4 {
			continue
		}
		if r.Method == "crisp" && (r.NM.N != 2 || r.NM.M != 4) {
			continue
		}
		acc[r.Method][r.Target] = r.Accuracy
	}
	// At the highest target, CRISP must not trail block pruning meaningfully.
	high := 0.92
	if acc["crisp"][high] < acc["block"][high]-0.05 {
		t.Fatalf("at κ=%.2f crisp %.3f trails block %.3f", high, acc["crisp"][high], acc["block"][high])
	}
}

func TestFigure7Shape(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rows, _ := h.Figure7()
	// quick: 2 datasets × 2 families × 3 class counts × 3 methods.
	if len(rows) != 2*2*3*3 {
		t.Fatalf("rows %d, want 36", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", r)
		}
		if r.Method == "dense-ft" && r.FLOPsRatio != 1 {
			t.Fatalf("dense FLOPs ratio %v", r.FLOPsRatio)
		}
		if r.Method != "dense-ft" && (r.FLOPsRatio <= 0 || r.FLOPsRatio >= 1) {
			t.Fatalf("pruned FLOPs ratio %v for %+v", r.FLOPsRatio, r)
		}
	}
	// CRISP must reach lower FLOPs than the channel baseline on average at
	// matched targets (the paper's table) — or at worst equal.
	var crispF, chanF float64
	var n int
	byKey := map[string]map[string]float64{}
	for _, r := range rows {
		if r.Method == "dense-ft" {
			continue
		}
		key := r.Dataset + "/" + string(r.Family) + "/" + itoa(r.NumClasses)
		if byKey[key] == nil {
			byKey[key] = map[string]float64{}
		}
		byKey[key][r.Method] = r.FLOPsRatio
	}
	for _, m := range byKey {
		crispF += m["crisp"]
		chanF += m["channel"]
		n++
	}
	if n == 0 {
		t.Fatal("no comparable pairs")
	}
	if crispF/float64(n) > chanF/float64(n)+0.05 {
		t.Fatalf("CRISP mean FLOPs %.3f above channel %.3f", crispF/float64(n), chanF/float64(n))
	}
}

func TestAblationsRun(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rowsA, _ := h.AblationIterative()
	if len(rowsA) != 2 {
		t.Fatalf("ablation A rows %d", len(rowsA))
	}
	rowsB, _ := h.AblationSaliency()
	if len(rowsB) != 2 {
		t.Fatalf("ablation B rows %d", len(rowsB))
	}
	rowsC, tb := h.AblationBalance()
	if len(rowsC) != 2 {
		t.Fatalf("ablation C rows %d", len(rowsC))
	}
	if tb.String() == "" {
		t.Fatal("empty table")
	}
	// Balanced variant must report lower or equal imbalance.
	if rowsC[0].Extra == "" || rowsC[1].Extra == "" {
		t.Fatal("missing imbalance annotations")
	}
}

func itoa(v int) string {
	return string(rune('0'+v/10%10)) + string(rune('0'+v%10))
}

func TestExtTransformer(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rows, tb := h.ExtTransformer()
	if len(rows) != 5 { // dense + 2 targets × 2 methods
		t.Fatalf("rows %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", r)
		}
		if r.Method != "dense-ft" && (r.FLOPs <= 0 || r.FLOPs >= 1) {
			t.Fatalf("FLOPs ratio %v for %+v", r.FLOPs, r)
		}
	}
	if tb.String() == "" {
		t.Fatal("empty table")
	}
}

func TestMemoryTable(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rows, tb := h.MemoryTable()
	if len(rows) != 4 {
		t.Fatalf("rows %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.CRISPBytes >= r.DenseBytes {
			t.Fatalf("%s: compressed %d not smaller than dense %d", r.Family, r.CRISPBytes, r.DenseBytes)
		}
		if r.CRISPBytes > r.CSRBytes {
			t.Fatalf("%s: crisp %d above csr %d", r.Family, r.CRISPBytes, r.CSRBytes)
		}
		if r.Compression < 1.5 {
			t.Fatalf("%s: compression %.2f too small at κ=0.85", r.Family, r.Compression)
		}
		if r.ServedInt8Bytes <= 0 || r.ServedInt8Bytes >= r.ServedF32Bytes {
			t.Fatalf("%s: served int8 %d bytes, float32 %d: an int8 engine must hold less", r.Family, r.ServedInt8Bytes, r.ServedF32Bytes)
		}
	}
	if tb.String() == "" {
		t.Fatal("empty table")
	}
}

func TestAblationsDE(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rowsD, _ := h.AblationSchedule()
	if len(rowsD) != 2 {
		t.Fatalf("ablation D rows %d", len(rowsD))
	}
	for _, r := range rowsD {
		if r.Sparsity < 0.85 {
			t.Fatalf("schedule %s missed target: %v", r.Variant, r.Sparsity)
		}
	}
	rowsE, _ := h.AblationMixedNM()
	if len(rowsE) != 2 {
		t.Fatalf("ablation E rows %d", len(rowsE))
	}
	for _, r := range rowsE {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("accuracy out of range: %+v", r)
		}
	}
}

func TestAblationQuant(t *testing.T) {
	skipHeavy(t)
	h := quickHarness()
	rows, _ := h.AblationQuant()
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		// Pruning is deterministic, so re-pruning gives the classifier the
		// float engine was compiled from; that engine is bit-identical to
		// masked dense, so its accuracy is the classifier's exactly.
		clf, test, _ := h.quantModel(r.Family)
		if acc := clf.Accuracy(test.X, test.Labels); r.Float != acc {
			t.Fatalf("%s: float engine accuracy %v, masked dense %v", r.Family, r.Float, acc)
		}
		if r.Int8 < r.Float-0.2 {
			t.Fatalf("%s: int8 dropped accuracy %v → %v", r.Family, r.Float, r.Int8)
		}
		if r.Agreement < 0.9 || r.Agreement > 1 {
			t.Fatalf("%s: int8/float top-1 agreement %v outside [0.9, 1]", r.Family, r.Agreement)
		}
	}
}
