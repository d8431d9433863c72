// Package pruner implements the CRISP class-aware pruning framework
// (Algorithm 1 of the paper) and the baselines it is compared against:
// pure block pruning (balanced and classic unbalanced), N:M-only pruning,
// mixed per-layer N:M, and CAPNN-style channel pruning.
package pruner

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/saliency"
	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// Schedule selects how the per-iteration sparsity target κ_p ramps from the
// N:M floor to the final target κ.
type Schedule int

const (
	// ScheduleLinear ramps κ_p linearly over the iterations (the paper's
	// "(1−N/M) + ∆" with a constant per-iteration increment).
	ScheduleLinear Schedule = iota
	// ScheduleCubic ramps quickly at first and flattens near the target
	// (the Zhu–Gupta schedule), provided as an extension.
	ScheduleCubic
)

// Options configures a pruning run.
type Options struct {
	// Target is the final global sparsity κ over prunable weights.
	Target float64
	// NM is the fine-grained pattern (e.g. 2:4). Ignored by baselines that
	// do not use N:M sparsity.
	NM sparsity.NM
	// BlockSize is the coarse block edge B (paper: 16–64; scaled models use
	// smaller blocks). Ignored by baselines without block pruning.
	BlockSize int
	// Iterations is the number of prune→fine-tune rounds n.
	Iterations int
	// FinetuneEpochs is δ, the fine-tuning epochs per iteration.
	FinetuneEpochs int
	// FinalFinetuneEpochs runs after the last pruning round.
	FinalFinetuneEpochs int
	// BatchSize for fine-tuning and saliency estimation.
	BatchSize int
	// LR, Momentum, WeightDecay configure SGD (paper: 0.1 / 0.9 / 4e-5; the
	// scaled models default to a smaller LR).
	LR, Momentum, WeightDecay float64
	// Schedule selects the κ_p ramp.
	Schedule Schedule
	// Saliency selects the importance criterion (default: the paper's CASS).
	Saliency saliency.Method
	// Seed drives batch shuffling.
	Seed int64
}

// Validate rejects configurations the pruners cannot honor. The zero value
// of a field means "use the default" and is accepted.
func (o Options) Validate() error {
	if o.Target < 0 || o.Target >= 1 {
		return fmt.Errorf("pruner: target sparsity %v outside [0,1)", o.Target)
	}
	if o.NM.M != 0 {
		if err := o.NM.Validate(); err != nil {
			return err
		}
	}
	if o.BlockSize < 0 || o.Iterations < 0 || o.FinetuneEpochs < 0 || o.BatchSize < 0 {
		return fmt.Errorf("pruner: negative option in %+v", o)
	}
	if o.LR < 0 || o.Momentum < 0 || o.Momentum >= 1 || o.WeightDecay < 0 {
		return fmt.Errorf("pruner: invalid optimizer settings lr=%v momentum=%v wd=%v", o.LR, o.Momentum, o.WeightDecay)
	}
	return nil
}

// WithDefaults fills unset fields with the reproduction's defaults and
// panics on clearly invalid configurations (programmer error). It is the
// single source of truth for option defaulting: the pruners apply it on
// construction and deployment paths (crisp.Deploy, the serving layer) apply
// it before sizing formats, so the two cannot drift.
func (o Options) WithDefaults() Options {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	if o.NM.M == 0 {
		o.NM = sparsity.NM{N: 2, M: 4}
	}
	if o.BlockSize == 0 {
		o.BlockSize = 4
	}
	if o.Iterations == 0 {
		o.Iterations = 4
	}
	if o.FinetuneEpochs == 0 {
		o.FinetuneEpochs = 2
	}
	if o.FinalFinetuneEpochs == 0 {
		o.FinalFinetuneEpochs = o.FinetuneEpochs
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.LR == 0 {
		o.LR = 0.02
	}
	if o.Momentum == 0 {
		o.Momentum = 0.9
	}
	if o.WeightDecay == 0 {
		o.WeightDecay = 4e-5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// kappaAt returns the iteration-p sparsity target, ramping from floor (the
// sparsity the fine-grained pattern alone provides) to Target over n rounds.
func (o Options) kappaAt(p, n int, floor float64) float64 {
	if o.Target <= floor {
		return o.Target
	}
	t := float64(p) / float64(n)
	var f float64
	switch o.Schedule {
	case ScheduleCubic:
		f = 1 - (1-t)*(1-t)*(1-t)
	default:
		f = t
	}
	return floor + (o.Target-floor)*f
}

// LayerStat records one layer's post-pruning state.
type LayerStat struct {
	Name       string
	Rows, Cols int
	// Sparsity is the zero fraction of the layer's mask.
	Sparsity float64
	// KeptBlockCols is the per-row kept block count (−1 for block-exempt
	// layers).
	KeptBlockCols int
	GridCols      int
}

// IterStat records the state after one prune→fine-tune round.
type IterStat struct {
	Iteration int
	Kappa     float64
	// Sparsity is the measured global sparsity after pruning.
	Sparsity float64
	// Loss is the mean loss of the last fine-tuning epoch.
	Loss float64
}

// Report summarizes a pruning run.
type Report struct {
	Method           string
	Target           float64
	AchievedSparsity float64
	FLOPsRatio       float64
	Layers           []LayerStat
	Iterations       []IterStat
}

// Summary is what a served tenant keeps of its Report: the sparsity the
// run achieved and the share of dense FLOPs it left. It is fixed-size.
type Summary struct {
	AchievedSparsity float64
	FLOPsRatio       float64
}

// Summary returns r's fixed-size summary.
func (r Report) Summary() Summary {
	return Summary{AchievedSparsity: r.AchievedSparsity, FLOPsRatio: r.FLOPsRatio}
}

// String renders a short human-readable summary.
func (r Report) String() string {
	return fmt.Sprintf("%s: target κ=%.2f achieved %.4f, FLOPs ratio %.3f (%d layers, %d iterations)",
		r.Method, r.Target, r.AchievedSparsity, r.FLOPsRatio, len(r.Layers), len(r.Iterations))
}

// Finetune trains clf on split for the given epochs with SGD, the paper's
// fine-tuner, returning the mean loss of the final epoch. Gradients flow
// densely through masks (STE).
func Finetune(clf *nn.Classifier, split data.Split, epochs, batchSize int, opt *nn.SGD, rng *rand.Rand) float64 {
	params := clf.Params()
	sum, batches, cur := 0.0, 0, 0
	data.Batches(rng, split, batchSize, epochs, func(epoch int, x *tensor.Tensor, labels []int) {
		if epoch != cur {
			sum, batches, cur = 0, 0, epoch
		}
		sum += clf.TrainBatch(x, labels)
		opt.Step(params)
		batches++
	})
	if batches == 0 {
		return 0
	}
	return sum / float64(batches)
}
