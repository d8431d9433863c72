package exp

import (
	"fmt"
	"strings"
)

// Figure is one runnable experiment artifact: a paper figure, table or
// ablation, keyed by the name crisp figures exposes.
type Figure struct {
	// Name is the CLI name ("fig1", "ablation-A", ...).
	Name string
	// Group is the coarse selector crisp figures' -fig flag matches
	// ("1", "ablations", "ext", ...).
	Group string
	// Run regenerates the artifact on a harness.
	Run func(h *Harness) *Table
}

// Figures returns the full ordered experiment suite. Every entry is
// independent of the others — shared state (the pretrained-model cache)
// lives in the Harness, which is concurrency-safe — so the suite can run
// sequentially or fan out over goroutines (crisp figures -workers).
func Figures() []Figure {
	return []Figure{
		{"fig1", "1", func(h *Harness) *Table { _, t := h.Figure1(); return t }},
		{"fig2", "2", func(h *Harness) *Table { _, t := h.Figure2(); return t }},
		{"fig3", "3", func(h *Harness) *Table { _, t := h.Figure3(); return t }},
		{"fig4", "4", func(h *Harness) *Table { _, t := h.Figure4(); return t }},
		{"fig7", "7", func(h *Harness) *Table { _, t := h.Figure7(); return t }},
		{"fig8", "8", func(h *Harness) *Table { _, t := h.Figure8(); return t }},
		{"ablation-A", "ablations", func(h *Harness) *Table { _, t := h.AblationIterative(); return t }},
		{"ablation-B", "ablations", func(h *Harness) *Table { _, t := h.AblationSaliency(); return t }},
		{"ablation-C", "ablations", func(h *Harness) *Table { _, t := h.AblationBalance(); return t }},
		{"ablation-D", "ablations", func(h *Harness) *Table { _, t := h.AblationSchedule(); return t }},
		{"ablation-E", "ablations", func(h *Harness) *Table { _, t := h.AblationMixedNM(); return t }},
		{"ext-transformer", "ext", func(h *Harness) *Table { _, t := h.ExtTransformer(); return t }},
		{"ext-network", "ext", func(h *Harness) *Table { _, t := h.NetworkTable(); return t }},
		{"memory", "mem", func(h *Harness) *Table { _, t := h.MemoryTable(); return t }},
		{"tile-sim", "validate", func(h *Harness) *Table { _, t := h.ValidateTileSim(); return t }},
		{"sweep", "validate", func(h *Harness) *Table { _, t := h.SweepSparsity(); return t }},
		{"quant", "validate", func(h *Harness) *Table { _, t := h.AblationQuant(); return t }},
		{"act-density", "validate", func(h *Harness) *Table { _, t := h.ActivationDensity(); return t }},
	}
}

// Select filters the suite by a -fig value: "all", a group ("1",
// "ablations", ...) or an exact figure name ("ablation-C").
func Select(figs []Figure, sel string) ([]Figure, error) {
	if sel == "all" || sel == "" {
		return figs, nil
	}
	var out []Figure
	for _, f := range figs {
		if f.Group == sel || f.Name == sel {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		// Derive the valid selectors from the registry so the message can
		// never drift from what is actually runnable.
		var groups, names []string
		seen := map[string]bool{}
		for _, f := range figs {
			if !seen[f.Group] {
				seen[f.Group] = true
				groups = append(groups, f.Group)
			}
			names = append(names, f.Name)
		}
		return nil, fmt.Errorf("exp: unknown figure selector %q (want all, a group [%s] or a name [%s])",
			sel, strings.Join(groups, ","), strings.Join(names, ","))
	}
	return out, nil
}
