package exp

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/pruner"
)

// ExtTransformerRow is one (method, target) point of the transformer
// extension experiment.
type ExtTransformerRow struct {
	Method   string
	Target   float64
	Achieved float64
	Accuracy float64
	FLOPs    float64
}

// ExtTransformer exercises the paper's stated future work: CRISP applied to
// a transformer architecture. Every projection of the small vision
// transformer (patch embedding, Q/K/V/O, MLP) is a prunable matrix, so the
// hybrid N:M + block pattern transfers unchanged. The experiment compares
// the dense fine-tuned reference against CRISP and unbalanced block pruning
// at increasing sparsity.
func (h *Harness) ExtTransformer() ([]ExtTransformerRow, *Table) {
	ds := h.ImageNetLike
	sc := h.Scenario(ds, 5)
	var rows []ExtTransformerRow

	dense := h.DenseUpperBound(models.Transformer, ds, sc)
	rows = append(rows, ExtTransformerRow{Method: "dense-ft", Accuracy: dense, FLOPs: 1})

	targets := []float64{0.7, 0.85}
	if h.Cfg.Scale == Full {
		targets = []float64{0.7, 0.8, 0.9}
	}
	for _, target := range targets {
		o := h.pruneOpts(target)
		for _, v := range []variant{{name: "crisp", p: pruner.NewCRISP(o)}, {name: "block", p: pruner.NewBlockOnly(o, false)}} {
			_, rep, acc := h.trial(models.Transformer, ds, sc, v.p)
			rows = append(rows, ExtTransformerRow{
				Method: v.name, Target: target,
				Achieved: rep.AchievedSparsity, Accuracy: acc, FLOPs: rep.FLOPsRatio,
			})
		}
	}
	t := &Table{
		Title:   "Extension: CRISP on a vision transformer (" + h.Cfg.Scale.String() + ")",
		Columns: []string{"method", "target", "achieved", "accuracy", "flops-ratio"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Method, f3(r.Target), f3(r.Achieved), f3(r.Accuracy), f3(r.FLOPs),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("transformer-s on %s, 5 user classes; the paper's future-work direction", ds.Name))
	return rows, t
}
