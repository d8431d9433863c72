package exp

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/pruner"
	"repro/internal/sparsity"
)

// Fig1Row is one (model, N:M) accuracy point.
type Fig1Row struct {
	Family   models.Family
	NM       sparsity.NM
	Accuracy float64
	DenseAcc float64
}

// Figure1 reproduces Fig. 1: accuracy of the three model families at N:M
// ratios 1:4 / 2:4 / 3:4 on a 10-class user scenario. The paper's point:
// over-parameterized models (ResNet) tolerate aggressive N:M, compact
// models (MobileNetV2) open an accuracy gap.
func (h *Harness) Figure1() ([]Fig1Row, *Table) {
	ds := h.ImageNetLike
	k := 10
	if h.Cfg.Scale == Quick {
		k = 5
	}
	sc := h.Scenario(ds, k)
	var rows []Fig1Row
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet} {
		dense := h.DenseUpperBound(f, ds, sc)
		for _, nm := range []sparsity.NM{{N: 3, M: 4}, {N: 2, M: 4}, {N: 1, M: 4}} {
			o := h.pruneOpts(1 - nm.Density())
			o.NM = nm
			_, _, acc := h.trial(f, ds, sc, pruner.NewNMOnly(o))
			rows = append(rows, Fig1Row{Family: f, NM: nm, Accuracy: acc, DenseAcc: dense})
		}
	}
	t := &Table{
		Title:   "Fig 1: accuracy at different N:M ratios (" + h.Cfg.Scale.String() + ")",
		Columns: []string{"model", "N:M", "accuracy", "dense-ft"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{string(r.Family), r.NM.String(), f3(r.Accuracy), f3(r.DenseAcc)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d user classes on %s", k, ds.Name))
	return rows, t
}

// Fig2Row is one layer's sparsity after global CRISP pruning.
type Fig2Row struct {
	Layer    string
	Sparsity float64
}

// Figure2 reproduces Fig. 2: the non-uniform layer-wise sparsity
// distribution global rank selection produces (some layers pruned far
// harder than the global average).
func (h *Harness) Figure2() ([]Fig2Row, *Table) {
	ds := h.ImageNetLike
	k := 5
	sc := h.Scenario(ds, k)
	_, rep, _ := h.trial(models.ResNet, ds, sc, pruner.NewCRISP(h.pruneOpts(0.9)))
	var rows []Fig2Row
	for _, ls := range rep.Layers {
		rows = append(rows, Fig2Row{Layer: ls.Name, Sparsity: ls.Sparsity})
	}
	t := &Table{
		Title:   "Fig 2: layer-wise sparsity distribution (" + h.Cfg.Scale.String() + ")",
		Columns: []string{"layer", "sparsity"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Layer, f3(r.Sparsity)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("resnet-s, global target 0.90, achieved %.3f", rep.AchievedSparsity),
		"global rank selection yields non-uniform per-layer sparsity (paper Fig 2)")
	return rows, t
}

// Fig3Row is one (variant, sparsity) accuracy point.
type Fig3Row struct {
	// Method is "crisp" or "block".
	Method string
	// NM is the fine-grained pattern (zero value for block-only rows).
	NM sparsity.NM
	// Block is the block size B.
	Block    int
	Target   float64
	Achieved float64
	Accuracy float64
}

// fig3Variant describes one curve of the Fig. 3 sweep.
type fig3Variant struct {
	method string
	nm     sparsity.NM
	block  int
}

// Figure3 reproduces Fig. 3: CRISP across N:M ratios and block sizes
// against pure block pruning, over increasing sparsity. Block pruning
// collapses beyond ~80% sparsity; CRISP holds.
func (h *Harness) Figure3() ([]Fig3Row, *Table) {
	ds := h.ImageNetLike
	k := 10
	if h.Cfg.Scale == Quick {
		k = 5
	}
	sc := h.Scenario(ds, k)
	targets := []float64{0.5, 0.7, 0.8, 0.9, 0.95}
	variants := []fig3Variant{
		{"crisp", sparsity.NM{N: 2, M: 4}, 4}, // canonical
		{"crisp", sparsity.NM{N: 1, M: 4}, 4},
		{"crisp", sparsity.NM{N: 3, M: 4}, 4},
		{"crisp", sparsity.NM{N: 2, M: 4}, 8},
		{"block", sparsity.NM{}, 4},
		{"block", sparsity.NM{}, 8},
	}
	if h.Cfg.Scale == Quick {
		targets = []float64{0.7, 0.85, 0.92}
		variants = []fig3Variant{
			{"crisp", sparsity.NM{N: 2, M: 4}, 4},
			{"crisp", sparsity.NM{N: 1, M: 4}, 4},
			{"crisp", sparsity.NM{N: 2, M: 4}, 8},
			{"block", sparsity.NM{}, 4},
			{"block", sparsity.NM{}, 8},
		}
	}
	var rows []Fig3Row
	for _, target := range targets {
		for _, v := range variants {
			o := h.pruneOpts(target)
			o.BlockSize = v.block
			o.NM = v.nm // block pruning ignores it
			var p pruneStep = pruner.NewCRISP(o)
			if v.method == "block" {
				p = pruner.NewBlockOnly(o, false)
			}
			_, rep, acc := h.trial(models.ResNet, ds, sc, p)
			rows = append(rows, Fig3Row{
				Method:   v.method,
				NM:       v.nm,
				Block:    v.block,
				Target:   target,
				Achieved: rep.AchievedSparsity,
				Accuracy: acc,
			})
		}
	}
	t := &Table{
		Title:   "Fig 3: CRISP (N:M × block sizes) vs block pruning across sparsity (" + h.Cfg.Scale.String() + ")",
		Columns: []string{"method", "N:M", "B", "target", "achieved", "accuracy"},
	}
	for _, r := range rows {
		nmStr := "-"
		if r.NM.M != 0 {
			nmStr = r.NM.String()
		}
		t.Rows = append(t.Rows, []string{
			r.Method, nmStr, fmt.Sprintf("%d", r.Block),
			f3(r.Target), f3(r.Achieved), f3(r.Accuracy),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("resnet-s, %d user classes; N:M ratios below the target fall back to pure N:M sparsity", k))
	return rows, t
}

// Fig7Row is one (dataset, model, #classes, method) point.
type Fig7Row struct {
	Dataset    string
	Family     models.Family
	NumClasses int
	Method     string
	Accuracy   float64
	FLOPsRatio float64
	Sparsity   float64
}

// Figure7 reproduces Fig. 7: accuracy (and the FLOPs-ratio table rows)
// versus the number of user-preferred classes, comparing CRISP against the
// channel-pruning baseline (OCAP/CAPNN-style) and the dense fine-tuned
// upper bound, on both datasets. The sparsity target scales with the class
// count, as in the paper (fewer classes → more aggressive pruning).
func (h *Harness) Figure7() ([]Fig7Row, *Table) {
	families := []models.Family{models.ResNet, models.VGG, models.MobileNet}
	classCounts := []int{2, 5, 10, 25}
	if h.Cfg.Scale == Quick {
		families = []models.Family{models.ResNet, models.VGG}
		classCounts = []int{2, 5, 10}
	}
	var rows []Fig7Row
	for _, ds := range []*data.Dataset{h.CIFARLike, h.ImageNetLike} {
		for _, f := range families {
			for _, k := range classCounts {
				sc := h.Scenario(ds, k)
				target := kappaForClasses(k, ds.NumClasses)
				rows = append(rows, Fig7Row{
					Dataset: ds.Name, Family: f, NumClasses: k, Method: "dense-ft",
					Accuracy: h.DenseUpperBound(f, ds, sc), FLOPsRatio: 1, Sparsity: 0,
				})
				// CRISP and the channel baseline at a matched target.
				o := h.pruneOpts(target)
				for _, v := range []variant{{name: "crisp", p: pruner.NewCRISP(o)}, {name: "channel", p: pruner.NewChannel(o)}} {
					_, rep, acc := h.trial(f, ds, sc, v.p)
					rows = append(rows, Fig7Row{
						Dataset: ds.Name, Family: f, NumClasses: k, Method: v.name,
						Accuracy: acc, FLOPsRatio: rep.FLOPsRatio, Sparsity: rep.AchievedSparsity,
					})
				}
			}
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].Dataset != rows[b].Dataset {
			return rows[a].Dataset < rows[b].Dataset
		}
		if rows[a].Family != rows[b].Family {
			return rows[a].Family < rows[b].Family
		}
		if rows[a].NumClasses != rows[b].NumClasses {
			return rows[a].NumClasses < rows[b].NumClasses
		}
		return rows[a].Method < rows[b].Method
	})
	t := &Table{
		Title:   "Fig 7: accuracy and FLOPs ratio vs number of user classes (" + h.Cfg.Scale.String() + ")",
		Columns: []string{"dataset", "model", "classes", "method", "accuracy", "flops-ratio", "sparsity"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, string(r.Family), fmt.Sprintf("%d", r.NumClasses), r.Method,
			f3(r.Accuracy), f3(r.FLOPsRatio), f3(r.Sparsity),
		})
	}
	t.Notes = append(t.Notes, "sparsity target scales down as the class count grows (paper setup)")
	return rows, t
}

// kappaForClasses scales the pruning target with the user-class fraction:
// personalizing to few classes supports aggressive pruning.
func kappaForClasses(k, total int) float64 {
	frac := float64(k) / float64(total)
	switch {
	case frac <= 0.1:
		return 0.92
	case frac <= 0.25:
		return 0.88
	case frac <= 0.5:
		return 0.82
	default:
		return 0.75
	}
}
