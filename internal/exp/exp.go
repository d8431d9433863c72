// Package exp is the experiment harness: one function per figure/table of
// the CRISP paper, each returning structured rows plus a text table
// (Table.String is its one rendering). Every pruned row goes through one
// trial step (Harness.trial): a fresh clone of the cached universal model,
// pruned to a user scenario, measured on the user classes. Figures is the
// ordered suite; crisp figures and the repository's benchmarks are thin
// wrappers around it.
package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick is the CI-friendly configuration (small synthetic datasets,
	// few epochs) used by `go test -bench` and the default CLI mode.
	Quick Scale = iota
	// Full is the larger configuration (`crisp figures -full`, and the
	// package's tests under -full).
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Config parameterizes the harness.
type Config struct {
	Scale Scale
	Seed  int64
}

// Harness owns the datasets and a cache of pre-trained "universal" models,
// so each figure pays the pre-training cost at most once per family. A
// harness is safe for concurrent figure runs: the pretraining cache is
// mutex-guarded and each snapshot trains exactly once even when several
// figures request the same family at the same time.
type Harness struct {
	Cfg Config
	// ImageNetLike and CIFARLike are the two synthetic datasets standing in
	// for ImageNet and CIFAR-100 (package data).
	ImageNetLike *data.Dataset
	CIFARLike    *data.Dataset

	mu         sync.Mutex
	pretrained map[string]*snapshot
}

// snapshot stores a trained model plus its constructor for cloning. once
// makes the training run exclusive without holding the harness lock.
type snapshot struct {
	once    sync.Once
	build   func() *nn.Classifier
	trained *nn.Classifier
}

// NewHarness constructs the harness for the given configuration.
func NewHarness(cfg Config) *Harness {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	h := &Harness{Cfg: cfg, pretrained: map[string]*snapshot{}}
	if cfg.Scale == Full {
		h.ImageNetLike = data.New(data.Config{
			Name: "synth-imagenet", NumClasses: 100, Channels: 3, H: 12, W: 12,
			Noise: 0.3, Jitter: 1, Seed: cfg.Seed,
		})
		h.CIFARLike = data.New(data.Config{
			Name: "synth-cifar", NumClasses: 60, Channels: 3, H: 10, W: 10,
			Noise: 0.3, Jitter: 1, Seed: cfg.Seed + 1,
		})
	} else {
		h.ImageNetLike = data.New(data.Config{
			Name: "synth-imagenet-q", NumClasses: 20, Channels: 3, H: 8, W: 8,
			Noise: 0.25, Jitter: 1, Seed: cfg.Seed,
		})
		h.CIFARLike = data.New(data.Config{
			Name: "synth-cifar-q", NumClasses: 16, Channels: 3, H: 8, W: 8,
			Noise: 0.25, Jitter: 1, Seed: cfg.Seed + 1,
		})
	}
	return h
}

// pretrainCfg returns epochs and samples-per-class for universal training.
func (h *Harness) pretrainCfg() (epochs, perClass int) {
	if h.Cfg.Scale == Full {
		return 8, 24
	}
	return 4, 12
}

// pruneOpts returns the default pruning options at this scale.
func (h *Harness) pruneOpts(target float64) pruner.Options {
	o := pruner.Options{
		Target:    target,
		BlockSize: 4,
		BatchSize: 16,
		LR:        0.01,
		Seed:      h.Cfg.Seed + 7,
	}
	if h.Cfg.Scale == Full {
		o.Iterations = 4
		o.FinetuneEpochs = 2
		o.FinalFinetuneEpochs = 3
	} else {
		o.Iterations = 3
		o.FinetuneEpochs = 1
		o.FinalFinetuneEpochs = 2
	}
	return o
}

// totalFinetuneEpochs is the epoch budget a pruning run consumes; the dense
// upper bound gets the same budget for a fair comparison.
func (h *Harness) totalFinetuneEpochs() int {
	o := h.pruneOpts(0.9)
	return o.Iterations*o.FinetuneEpochs + o.FinalFinetuneEpochs
}

// Pretrained returns a fresh classifier of family f trained on all classes
// of ds (the "universal model"), cloning from a per-harness cache.
func (h *Harness) Pretrained(f models.Family, ds *data.Dataset) *nn.Classifier {
	key := string(f) + "/" + ds.Name
	h.mu.Lock()
	snap := h.pretrained[key]
	if snap == nil {
		snap = &snapshot{}
		h.pretrained[key] = snap
	}
	h.mu.Unlock()
	snap.once.Do(func() {
		// The seed is derived from the key, not from cache-insertion order,
		// so concurrent figures assign each family the same model no matter
		// which figure asked first.
		seed := h.Cfg.Seed + int64(data.HashString(key)%997)*101
		snap.build = func() *nn.Classifier {
			return models.Build(f, rand.New(rand.NewSource(seed)), ds.NumClasses, widthFor(f))
		}
		clf := snap.build()
		epochs, perClass := h.pretrainCfg()
		pruner.Pretrain(clf, ds, epochs, perClass, seed+1)
		snap.trained = clf
	})
	fresh := snap.build()
	snap.trained.CloneWeightsTo(fresh)
	return fresh
}

// widthFor mirrors the paper's over-parameterization ordering.
func widthFor(f models.Family) int {
	switch f {
	case models.MobileNet:
		return 1
	default:
		return 2
	}
}

// UserScenario bundles the splits for one personalization experiment.
type UserScenario struct {
	Classes []int
	Train   data.Split
	Test    data.Split
}

// Scenario samples k user classes from ds and materializes the splits.
func (h *Harness) Scenario(ds *data.Dataset, k int) UserScenario {
	classes := ds.UserClasses(h.Cfg.Seed+int64(k)*13, k)
	trainPer, testPer := 16, 8
	if h.Cfg.Scale == Full {
		trainPer, testPer = 32, 16
	}
	return UserScenario{
		Classes: classes,
		Train:   ds.MakeSplit("user-train", classes, trainPer),
		Test:    ds.MakeSplit("user-test", classes, testPer),
	}
}

// pruneStep is every pruner of package pruner: CRISP and the baselines it
// is compared against.
type pruneStep interface {
	Prune(clf *nn.Classifier, train data.Split) pruner.Report
}

// variant is a labelled pruner: one row of a comparison. extra, if set,
// fills an ablation's extra column from the pruned model.
type variant struct {
	name  string
	p     pruneStep
	extra func(clf *nn.Classifier) string
}

// trial is one pruned row of the suite: it prunes a fresh clone of family
// f's universal model on ds to sc's user classes with p, and returns the
// pruned model, its report and its user-class test accuracy.
func (h *Harness) trial(f models.Family, ds *data.Dataset, sc UserScenario, p pruneStep) (*nn.Classifier, pruner.Report, float64) {
	clf := h.Pretrained(f, ds)
	rep := p.Prune(clf, sc.Train)
	return clf, rep, clf.Accuracy(sc.Test.X, sc.Test.Labels)
}

// DenseUpperBound fine-tunes a fresh pretrained model on the user classes
// with the same epoch budget pruning gets and returns its test accuracy —
// the paper's dense reference.
func (h *Harness) DenseUpperBound(f models.Family, ds *data.Dataset, sc UserScenario) float64 {
	clf := h.Pretrained(f, ds)
	opt := nn.NewSGD(0.01, 0.9, 4e-5)
	pruner.Finetune(clf, sc.Train, h.totalFinetuneEpochs(), 16, opt, rand.New(rand.NewSource(h.Cfg.Seed+3)))
	return clf.Accuracy(sc.Test.X, sc.Test.Labels)
}

// Table is a rendered experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders an aligned text table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f3 formats a float at 3 decimals.
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// f1 formats a float at 1 decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
