package pruner

import (
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/saliency"
	"repro/internal/sparsity"
)

// MixedNM searches a per-layer N:M assignment (DominoSearch-style — the
// paper's reference [9] for the "costly alternative" to CRISP): every layer
// starts at the densest candidate pattern and a greedy loop steps the layer
// with the smallest saliency-loss-per-pruned-weight to its next-sparser
// pattern until the global target is met. It demonstrates the
// hyperparameter and bookkeeping burden CRISP's single global ranking
// avoids, at similar quality.
type MixedNM struct {
	Opts Options
	// Candidates are the allowed patterns, densest first (default
	// 3:4 → 2:4 → 1:4).
	Candidates []sparsity.NM
}

// NewMixedNM constructs the baseline.
func NewMixedNM(opts Options) *MixedNM {
	return &MixedNM{
		Opts:       opts.WithDefaults(),
		Candidates: []sparsity.NM{{N: 3, M: 4}, {N: 2, M: 4}, {N: 1, M: 4}},
	}
}

// layerState tracks one layer's position in the candidate ladder.
type layerState struct {
	param *nn.Param
	// level indexes Candidates; kept[i] is the retained saliency at level i.
	level int
	kept  []float64
	size  int
}

// Prune runs the iterative search + fine-tune loop. κ_p ramps from the
// densest candidate's sparsity.
func (b *MixedNM) Prune(clf *nn.Classifier, train data.Split) Report {
	return run(clf, train, b.Opts, "mixed-nm", 1-b.Candidates[0].Density(), b.assign)
}

// assign chooses per-layer patterns greedily and writes the masks.
func (b *MixedNM) assign(params []*nn.Param, scores saliency.Scores, kappa float64) {
	states := make([]*layerState, 0, len(params))
	total, nonzero := 0, 0
	for _, prm := range params {
		st := &layerState{param: prm, size: prm.W.Len(), kept: make([]float64, len(b.Candidates))}
		sv := scores.MatrixView(prm)
		mask := prm.MaskMatrixView()
		for i, nm := range b.Candidates {
			sparsity.ApplyNM(mask, sv, nm)
			kept := 0.0
			for j, v := range sv.Data {
				if mask.Data[j] != 0 {
					kept += v
				}
			}
			st.kept[i] = kept
		}
		states = append(states, st)
		total += st.size
		nonzero += int(b.Candidates[0].Density() * float64(st.size))
	}
	targetNonzero := int((1 - kappa) * float64(total))

	// Greedy ladder descent: repeatedly take the cheapest next step. A
	// sorted queue of current marginal costs is rebuilt lazily; with three
	// candidate levels the loop is tiny.
	for nonzero > targetNonzero {
		best := -1
		bestCost := 0.0
		for i, st := range states {
			if st.level+1 >= len(b.Candidates) {
				continue
			}
			dW := (b.Candidates[st.level].Density() - b.Candidates[st.level+1].Density()) * float64(st.size)
			dLoss := st.kept[st.level] - st.kept[st.level+1]
			cost := dLoss / dW
			if best == -1 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best == -1 {
			break // every layer is at the sparsest pattern
		}
		st := states[best]
		st.level++
		nonzero -= int((b.Candidates[st.level-1].Density() - b.Candidates[st.level].Density()) * float64(st.size))
	}

	// Write the chosen masks.
	for _, st := range states {
		sparsity.ApplyNM(st.param.MaskMatrixView(), scores.MatrixView(st.param), b.Candidates[st.level])
	}
}

// AssignedPatterns reports, after Prune, the N:M level of each layer by
// measuring its mask density against the candidate ladder.
func (b *MixedNM) AssignedPatterns(clf *nn.Classifier) map[string]sparsity.NM {
	out := map[string]sparsity.NM{}
	for _, prm := range clf.PrunableParams() {
		d := prm.Density()
		bestNM := b.Candidates[0]
		bestGap := 2.0
		for _, nm := range b.Candidates {
			gap := d - nm.Density()
			if gap < 0 {
				gap = -gap
			}
			if gap < bestGap {
				bestGap, bestNM = gap, nm
			}
		}
		out[prm.Name] = bestNM
	}
	return out
}
