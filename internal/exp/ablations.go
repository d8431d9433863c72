package exp

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/saliency"
	"repro/internal/sparsity"
)

// AblationRow is one (variant, metric) outcome.
type AblationRow struct {
	Variant  string
	Accuracy float64
	Sparsity float64
	Extra    string
}

// ablate runs each variant as a trial on resnet-s for the ablations'
// scenario (5 ImageNet-like user classes) and tabulates the rows under title.
func (h *Harness) ablate(title string, vs []variant) ([]AblationRow, *Table) {
	ds := h.ImageNetLike
	sc := h.Scenario(ds, 5)
	var rows []AblationRow
	for _, v := range vs {
		clf, rep, acc := h.trial(models.ResNet, ds, sc, v.p)
		row := AblationRow{Variant: v.name, Accuracy: acc, Sparsity: rep.AchievedSparsity}
		if v.extra != nil {
			row.Extra = v.extra(clf)
		}
		rows = append(rows, row)
	}
	t := &Table{Title: title, Columns: []string{"variant", "accuracy", "sparsity", "extra"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Variant, f3(r.Accuracy), f3(r.Sparsity), r.Extra})
	}
	return rows, t
}

// AblationIterative compares one-shot pruning (n=1) against the paper's
// iterative schedule at the same final target — the layer-collapse argument
// of Sec. III-C.
func (h *Harness) AblationIterative() ([]AblationRow, *Table) {
	var vs []variant
	for _, iters := range []int{1, 4} {
		o := h.pruneOpts(0.92)
		o.Iterations = iters
		// Paper setup: δ fine-tuning epochs per iteration plus a final
		// recovery phase. One-shot inherently trains less — that is the
		// point of the comparison.
		o.FinetuneEpochs = 2
		o.FinalFinetuneEpochs = 2
		vs = append(vs, variant{name: fmt.Sprintf("iterations=%d", iters), p: pruner.NewCRISP(o)})
	}
	return h.ablate("Ablation A: one-shot vs iterative pruning (κ=0.92)", vs)
}

// AblationSaliency compares the class-aware Taylor score (CASS) against
// class-agnostic magnitude pruning — the Sec. III-D criterion argument.
func (h *Harness) AblationSaliency() ([]AblationRow, *Table) {
	var vs []variant
	for _, m := range []saliency.Method{saliency.Taylor, saliency.Magnitude} {
		o := h.pruneOpts(0.88)
		o.Saliency = m
		vs = append(vs, variant{name: m.String(), p: pruner.NewCRISP(o)})
	}
	return h.ablate("Ablation B: class-aware (CASS) vs magnitude saliency (κ=0.88)", vs)
}

// AblationBalance compares balanced (rank-column) against classic
// unbalanced block pruning and reports the resulting load imbalance — the
// hardware argument of Sec. III-A. Imbalance is max/mean non-zero blocks
// per block row, averaged over layers; an imbalance of 1.0 wastes no lanes.
func (h *Harness) AblationBalance() ([]AblationRow, *Table) {
	o := h.pruneOpts(0.8)
	imbalance := func(clf *nn.Classifier) string {
		return fmt.Sprintf("row imbalance %.2f", meanImbalance(clf, o.BlockSize))
	}
	rows, t := h.ablate("Ablation C: uniform per-row balance vs unconstrained block pruning (κ=0.80)", []variant{
		{name: "balanced", p: pruner.NewBlockOnly(o, true), extra: imbalance},
		{name: "unbalanced", p: pruner.NewBlockOnly(o, false), extra: imbalance},
	})
	t.Notes = append(t.Notes, "imbalance = mean over layers of (max blocks/row ÷ mean blocks/row); 1.00 = perfect load balance")
	return rows, t
}

// AblationSchedule compares the linear κ_p ramp (the paper's constant-∆
// schedule) against the cubic Zhu–Gupta ramp at the same target.
func (h *Harness) AblationSchedule() ([]AblationRow, *Table) {
	var vs []variant
	for _, s := range []pruner.Schedule{pruner.ScheduleLinear, pruner.ScheduleCubic} {
		o := h.pruneOpts(0.9)
		o.Schedule = s
		name := "linear"
		if s == pruner.ScheduleCubic {
			name = "cubic"
		}
		vs = append(vs, variant{name: name, p: pruner.NewCRISP(o)})
	}
	return h.ablate("Ablation D: linear vs cubic sparsity schedule (κ=0.90)", vs)
}

// AblationMixedNM compares CRISP's single global ranking against a
// DominoSearch-style per-layer N:M search at a matched sparsity target —
// the "increased algorithmic complexity" alternative the paper's
// introduction argues against for edge deployment.
func (h *Harness) AblationMixedNM() ([]AblationRow, *Table) {
	o := h.pruneOpts(0.7) // between the 3:4 and 1:4 floors, where the search can act
	mixed := pruner.NewMixedNM(o)
	rows, t := h.ablate("Ablation E: CRISP vs per-layer N:M search (κ=0.70)", []variant{
		{name: "crisp (global ranking)", p: pruner.NewCRISP(o),
			extra: func(*nn.Classifier) string { return "1 pattern hyperparameter" }},
		{name: "mixed per-layer N:M", p: mixed, extra: func(clf *nn.Classifier) string {
			patterns := mixed.AssignedPatterns(clf)
			distinct := map[string]bool{}
			for _, nm := range patterns {
				distinct[nm.String()] = true
			}
			return fmt.Sprintf("%d per-layer assignments (%d distinct patterns)", len(patterns), len(distinct))
		}},
	})
	t.Notes = append(t.Notes, "the search needs per-layer bookkeeping the paper's global ranking avoids")
	return rows, t
}

// meanImbalance averages (max kept blocks per row ÷ mean kept blocks per
// row) over prunable, non-exempt layers.
func meanImbalance(clf *nn.Classifier, blockSize int) float64 {
	sum, layers := 0.0, 0
	for _, p := range clf.PrunableParams() {
		if p.BlockExempt || p.Mask == nil {
			continue
		}
		g := sparsity.NewBlockGrid(p.Rows, p.Cols, blockSize)
		counts := sparsity.KeptBlocksPerRow(p.MaskMatrixView(), g)
		maxC, total := 0, 0
		for _, c := range counts {
			total += c
			if c > maxC {
				maxC = c
			}
		}
		if total == 0 {
			continue
		}
		mean := float64(total) / float64(len(counts))
		sum += float64(maxC) / mean
		layers++
	}
	if layers == 0 {
		return 1
	}
	return sum / float64(layers)
}
