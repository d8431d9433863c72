package checkpoint

// Personalization records are the durable form of one serving-layer tenant
// model: the pruned classifier (weights, masks, batch-norm statistics)
// together with the class set it was pruned for, the pruning report and the
// measured held-out accuracy. They are what the personalization server
// snapshots to disk so a restart can reload engines instead of re-running
// the prune+fine-tune pipeline per tenant.
//
// The record is version 3 of the checkpoint stream (same magic, same
// endian-fixed primitives):
//
//	magic "CRSP" | u32 3
//	| key | u32 #classes | u32 classes (sorted ids)
//	| f64 accuracy
//	| report: method | f64 target | f64 achieved | f64 flopsRatio
//	|   u32 #layers;  per layer: name | u32 rows | u32 cols | f64 sparsity
//	|                            | i32 keptBlockCols | u32 gridCols
//	|   u32 #iters;   per iter:  u32 iteration | f64 kappa | f64 sparsity | f64 loss
//	| classifier body (identical encoding to the v1 payload)
//	| u64 crc64/ECMA over everything after the version word
//
// The trailing checksum is what makes disk corruption fail closed: a bit
// flipped inside a raw float64 weight parses fine and would silently change
// the tenant's logits; with the trailer, any flip anywhere in the record is
// a load error (and the serving layer quarantines the record).
//
// LoadPersonalization accepts version 3 only. Version 2 (the same record
// minus the trailer) was written by no deployed server, and a reader for it
// is a way to skip the checksum by flipping one bit of the version word.
// Version 1 streams (plain classifiers written by Save) remain loadable by
// Load; LoadPersonalization rejects them, and Load rejects v3 records, so
// the two cannot be confused silently.

import (
	"fmt"
	"io"

	"repro/internal/nn"
	"repro/internal/pruner"
)

const personalizationVersion = 3

// maxCount bounds every repeated-field count in a record. Real records
// have a handful of classes, layers and iterations; anything near the bound
// is corruption, and rejecting it early keeps hostile inputs from driving
// large allocation or parse loops.
const maxCount = 1 << 20

// PersonalizationRecord is the serializable metadata of one personalized
// model; the pruned classifier itself rides along in the same stream.
type PersonalizationRecord struct {
	// Key is the canonical cache key (sorted, deduplicated class ids joined
	// by commas), as produced by the serving layer.
	Key string
	// Classes is the canonical class set.
	Classes []int
	// Accuracy is top-1 accuracy on held-out samples of the classes.
	Accuracy float64
	// Report is the pruning run summary.
	Report pruner.Report
}

// SavePersonalization writes a version-3 record: rec's metadata followed by
// the pruned classifier's full payload and a crc64 trailer.
func SavePersonalization(w io.Writer, rec PersonalizationRecord, clf *nn.Classifier) error {
	bw := &enc{w: w}
	bw.raw(magic)
	bw.u32(personalizationVersion)
	bw.startSum()

	bw.str(rec.Key)
	bw.u32(uint32(len(rec.Classes)))
	for _, c := range rec.Classes {
		bw.u32(uint32(c))
	}
	bw.f64(rec.Accuracy)

	r := rec.Report
	bw.str(r.Method)
	bw.f64(r.Target)
	bw.f64(r.AchievedSparsity)
	bw.f64(r.FLOPsRatio)
	bw.u32(uint32(len(r.Layers)))
	for _, l := range r.Layers {
		bw.str(l.Name)
		bw.u32(uint32(l.Rows))
		bw.u32(uint32(l.Cols))
		bw.f64(l.Sparsity)
		bw.u32(uint32(int32(l.KeptBlockCols))) // −1 marks block-exempt layers
		bw.u32(uint32(l.GridCols))
	}
	bw.u32(uint32(len(r.Iterations)))
	for _, it := range r.Iterations {
		bw.u32(uint32(it.Iteration))
		bw.f64(it.Kappa)
		bw.f64(it.Sparsity)
		bw.f64(it.Loss)
	}

	saveBody(bw, clf)
	bw.trailer()
	return bw.finish()
}

// LoadPersonalization restores a record written by SavePersonalization,
// loading the pruned classifier into clf (which must be architecturally
// identical to the saved one). Corrupted or truncated streams return an
// error and may leave clf partially written; callers restore into a fresh
// clone, never a live model.
func LoadPersonalization(r io.Reader, clf *nn.Classifier) (PersonalizationRecord, error) {
	var rec PersonalizationRecord
	br := &dec{r: r}
	if err := br.header(magic, personalizationVersion, "checkpoint: personalization"); err != nil {
		return rec, err
	}
	br.startSum()

	rec.Key = br.str()
	nc := int(br.u32())
	if br.err != nil {
		return rec, br.err
	}
	if nc <= 0 || nc > maxCount {
		return rec, fmt.Errorf("checkpoint: implausible class count %d", nc)
	}
	rec.Classes = make([]int, nc)
	for i := range rec.Classes {
		rec.Classes[i] = int(br.u32())
	}
	rec.Accuracy = br.f64()

	rec.Report.Method = br.str()
	rec.Report.Target = br.f64()
	rec.Report.AchievedSparsity = br.f64()
	rec.Report.FLOPsRatio = br.f64()
	nl := int(br.u32())
	if br.err != nil {
		return rec, br.err
	}
	if nl < 0 || nl > maxCount {
		return rec, fmt.Errorf("checkpoint: implausible layer count %d", nl)
	}
	rec.Report.Layers = make([]pruner.LayerStat, nl)
	for i := range rec.Report.Layers {
		l := &rec.Report.Layers[i]
		l.Name = br.str()
		l.Rows = int(br.u32())
		l.Cols = int(br.u32())
		l.Sparsity = br.f64()
		l.KeptBlockCols = int(int32(br.u32()))
		l.GridCols = int(br.u32())
		if br.err != nil {
			return rec, br.err
		}
	}
	ni := int(br.u32())
	if br.err != nil {
		return rec, br.err
	}
	if ni < 0 || ni > maxCount {
		return rec, fmt.Errorf("checkpoint: implausible iteration count %d", ni)
	}
	rec.Report.Iterations = make([]pruner.IterStat, ni)
	for i := range rec.Report.Iterations {
		it := &rec.Report.Iterations[i]
		it.Iteration = int(br.u32())
		it.Kappa = br.f64()
		it.Sparsity = br.f64()
		it.Loss = br.f64()
		if br.err != nil {
			return rec, br.err
		}
	}

	if err := loadBody(br, clf); err != nil {
		return rec, err
	}
	return rec, br.checkTrailer("personalization record")
}
