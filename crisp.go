// Package crisp is the public facade of this reproduction of "CRISP:
// Hybrid Structured Sparsity for Class-aware Model Pruning" (DATE 2024).
//
// The library prunes a classifier down to the classes a specific user
// encounters, using the paper's hybrid pattern: fine-grained N:M sparsity
// composed with coarse-grained, per-row-balanced block sparsity, driven by
// a gradient-based class-aware saliency score and an iterative
// prune→fine-tune loop.
//
// ExamplePersonalize is the quick start: pre-train a universal model with
// Pretrain, then prune it to one user's classes with Personalize.
//
// To serve many users concurrently, wrap the pretrained model in the
// personalization server instead of pruning one-shot (ExampleNewServer):
// engines are built on a bounded worker pool, cached per class set with LRU
// eviction, and run batched sparse inference (crisp serve exposes the same
// thing over HTTP).
//
// Concurrent Predict calls against the same personalization coalesce into
// shared engine invocations (cross-request dynamic batching; tune with
// ServerConfig.MaxBatch/Linger/MaxQueue) with results bit-identical to
// running each request alone; when a personalization's queue is full the
// server sheds load with serve.ErrOverloaded instead of queueing without
// bound.
//
// Set ServerConfig.SnapshotDir to make the server durable: completed
// personalizations are snapshotted to disk write-behind, evicted engines
// keep their disk copy, and NewServer warm-restarts from the directory —
// previously personalized class sets reload with bit-identical engines
// instead of re-running the prune+fine-tune pipeline.
//
// Set ServerConfig.MemoryBudgetBytes to cap resident tenant state: the
// engine cache becomes a three-tier hierarchy (hot compiled engines →
// warm delta-encoded records → cold disk snapshots) that stores every
// tenant as a delta over the universal weights instead of a full model
// copy. Demoted tenants promote back bit-identically on their next
// request; see ExampleNewServer and internal/serve's "Memory tiers"
// section. Budget 0 (the default) keeps the single-level count LRU.
//
// Set ServerConfig.Precision to inference.Int8 to serve from int8 quantized
// plans (the deployment precision of CRISP-STC's sparse tensor cores):
// weights compile to int8 codes with per-row scales, activations quantize
// per column on the fly, products accumulate in int32 and dequantize on
// store. Results are approximate; every personalization measures its top-1
// agreement against the full-precision engine on its held-out split
// (serve.Personalization.Agreement, aggregated in Stats), and snapshot
// restore re-quantizes deterministically — the restored engine carries
// exactly the pre-restart codes.
//
// The heavy lifting lives in the internal packages (tensor, nn, sparsity,
// saliency, pruner, format, accel, energy, data, models, exp, serve); this
// package re-exports the workflow a downstream user needs.
package crisp

import (
	"io"
	"math/rand"

	"repro/internal/checkpoint"
	"repro/internal/data"
	"repro/internal/export"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
	"repro/internal/serve"
	"repro/internal/sparsity"
)

// ResNet is the residual network family, the paper's main network
// (package models builds the other families).
const ResNet = models.ResNet

// NM re-exports the N:M pattern descriptor.
type NM = sparsity.NM

// Config re-exports the pruning options.
type Config = pruner.Options

// Report re-exports the pruning report.
type Report = pruner.Report

// Dataset re-exports the synthetic dataset type.
type Dataset = data.Dataset

// Classifier re-exports the trainable model wrapper.
type Classifier = nn.Classifier

// NewDataset materializes a synthetic dataset.
func NewDataset(cfg data.Config) *Dataset { return data.New(cfg) }

// NewModel builds a trainable classifier of the given family and width.
func NewModel(f models.Family, numClasses, width int, seed int64) *Classifier {
	return models.Build(f, rand.New(rand.NewSource(seed)), numClasses, width)
}

// DefaultConfig returns the paper-default pruning configuration for a
// global sparsity target: 2:4 fine-grained sparsity, iterative schedule,
// SGD with momentum 0.9 and weight decay 4e-5.
func DefaultConfig(target float64) Config {
	return Config{
		Target: target,
		NM:     NM{N: 2, M: 4},
	}
}

// Pretrain trains the model on all classes of ds — the "universal model"
// the paper starts from.
func Pretrain(model *Classifier, ds *Dataset, epochs, samplesPerClass int, seed int64) {
	pruner.Pretrain(model, ds, epochs, samplesPerClass, seed)
}

// Result bundles the outcome of Personalize.
type Result struct {
	// Report is the pruning run summary (achieved sparsity, FLOPs ratio,
	// per-layer stats, per-iteration trace).
	Report Report
	// Accuracy is top-1 accuracy on held-out samples of the user classes.
	Accuracy float64
	// Classes echoes the personalization target.
	Classes []int
}

// Personalize runs the CRISP framework: starting from the given (ideally
// pre-trained) model, it iteratively prunes toward cfg.Target using
// samples of the user's classes and returns the pruned model's report and
// held-out accuracy. The model is mutated in place.
func Personalize(model *Classifier, ds *Dataset, userClasses []int, cfg Config) Result {
	train := ds.MakeSplit("user-train", userClasses, 32)
	test := ds.MakeSplit("user-test", userClasses, 16)
	rep := pruner.NewCRISP(cfg).Prune(model, train)
	return Result{
		Report:   rep,
		Accuracy: model.Accuracy(test.X, test.Labels),
		Classes:  userClasses,
	}
}

// SaveCheckpoint writes the model to w as a personalization record serving
// every class, the one checksummed format the checkpoint package writes.
// The record keeps the pruning masks, every weight a mask keeps (an
// unmasked parameter whole) and the normalization statistics. It does not
// keep weights at pruned positions: W ⊙ Mask, all that inference,
// compilation and quantization read, comes back bit for bit, but a
// re-prune of a loaded pruned model starts its pruned weights from the
// loading model's values. A universal model is unmasked and is saved whole.
func SaveCheckpoint(w io.Writer, model *Classifier) error {
	classes := make([]int, model.NumClasses)
	for i := range classes {
		classes[i] = i
	}
	return checkpoint.SavePersonalization(w, checkpoint.PersonalizationRecord{Classes: classes}, model)
}

// LoadCheckpoint restores a record written by SaveCheckpoint into an
// architecturally identical model. It fails closed: a corrupt, truncated or
// foreign stream is an error and leaves the model untouched.
func LoadCheckpoint(r io.Reader, model *Classifier) error {
	_, err := checkpoint.LoadPersonalization(r, model)
	return err
}

// Deployment summarizes a pruned model's deployable artifacts.
type Deployment struct {
	// DenseBytes and CRISPBytes are deployed sizes at 8-bit weights.
	DenseBytes, CRISPBytes int64
	// Compression is DenseBytes / CRISPBytes.
	Compression float64
	// Engine executes inference from the compressed representation; its
	// outputs are bit-identical to the masked dense model.
	Engine *inference.Engine
}

// Server re-exports the concurrent personalization service: per-class-set
// pruned engines built on a bounded worker pool, cached with LRU eviction
// and singleflight dedup of identical in-flight requests (see
// internal/serve for the cache semantics and HTTP surface).
type Server = serve.Server

// ServerConfig re-exports the serving options, including the dynamic
// batching knobs: MaxBatch coalesces concurrent Predict calls against one
// personalization into shared engine invocations (1 disables), Linger
// bounds how long a lone request waits for batch mates, and MaxQueue is
// the admission-control bound — a full queue rejects with
// serve.ErrOverloaded instead of queueing without bound.
//
// MemoryBudgetBytes bounds resident tenant state in bytes and switches
// the cache to the tiered hot/warm/cold hierarchy (HotFraction splits the
// budget between compiled engines and delta records); 0 keeps the
// single-level LRU of CacheSize engines.
type ServerConfig = serve.Options

// NewServer wraps a pretrained universal model in the personalization
// service. f, width and seed must match the arguments model was built with
// (NewModel), so the server can clone architecturally identical instances
// to prune per request; model itself is never mutated. Invalid pruning
// options in cfg are reported as an error.
//
// When cfg.SnapshotDir is set, NewServer warm-restarts: every
// personalization snapshotted by a previous server on that directory is
// restored from disk before the server is returned (corrupt records are
// skipped and counted in Stats().RestoreErrors). Use serve.NewServer
// directly to defer or skip the restore.
func NewServer(model *Classifier, f models.Family, width int, seed int64, ds *Dataset, cfg ServerConfig) (*Server, error) {
	build := func() *Classifier {
		return models.Build(f, rand.New(rand.NewSource(seed)), ds.NumClasses, width)
	}
	s, err := serve.NewServer(build, model, ds, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.SnapshotDir != "" {
		if _, err := s.Restore(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Deploy compresses the pruned model into the CRISP storage format and
// builds the sparse inference engine over it.
func Deploy(model *Classifier, cfg Config) (Deployment, error) {
	// Validate first: WithDefaults panics on invalid configurations
	// (programmer error inside the pruners), but Deploy reports errors.
	if err := cfg.Validate(); err != nil {
		return Deployment{}, err
	}
	cfg = cfg.WithDefaults()
	sizes, err := export.Sizes(model, cfg.BlockSize, cfg.NM, 8)
	if err != nil {
		return Deployment{}, err
	}
	eng, err := inference.New(model, cfg.BlockSize, cfg.NM)
	if err != nil {
		return Deployment{}, err
	}
	return Deployment{
		DenseBytes:  sizes.DenseBytes,
		CRISPBytes:  sizes.FormatBytes["crisp"],
		Compression: sizes.CompressionRatio("crisp"),
		Engine:      eng,
	}, nil
}
