package checkpoint

// Personalization records are the durable form of one serving-layer tenant:
// the tenant's model delta (delta.go) together with the class set it was
// pruned for, the pruning report and the measured held-out accuracy. They
// are what the personalization server snapshots to disk so a restart can
// reload engines instead of re-running the prune+fine-tune pipeline per
// tenant. The record carries the very bytes the server holds a warm tenant
// as, so writing one builds no model and reading one back needs none. A
// saved universal model is a record too, whose class set is every class.
//
// The record is version 4 of the checkpoint stream (same magic, same
// endian-fixed primitives):
//
//	magic "CRSP" | u32 4
//	| key | u32 #classes | u32 classes (sorted ids)
//	| f64 accuracy
//	| report: method | f64 target | f64 achieved | f64 flopsRatio
//	|   u32 #layers;  per layer: name | u32 rows | u32 cols | f64 sparsity
//	|                            | i32 keptBlockCols | u32 gridCols
//	|   u32 #iters;   per iter:  u32 iteration | f64 kappa | f64 sparsity | f64 loss
//	| u32 delta length | model delta, verbatim
//	| u64 crc64/ECMA over everything after the version word
//
// The trailing checksum is what makes disk corruption fail closed: a bit
// flipped inside a raw float64 weight parses fine and would silently change
// the tenant's logits; with the trailer, any flip anywhere in the record is
// a load error (and the serving layer quarantines the record). The delta's
// length is held to the largest delta the reader's architecture admits
// before anything is allocated for it, and the delta must then parse
// against that architecture (ViewModelDelta), so a record of another model
// fails closed too.
//
// A record restores against any model of its architecture: the delta
// carries every value a loader reads. The readers accept version 4 only.
// Version 3 (the same metadata over the dense classifier payload) and
// version 2 (v3 minus the trailer) fail at the header; a server quarantines
// such a record and re-prunes the tenant once, which — pruning being
// deterministic in (base, class set) — yields the same tenant. Version 1
// (the unchecksummed whole-classifier stream older builds saved models as)
// fails at the header too; such a model is saved again as a record.

import (
	"fmt"
	"io"

	"repro/internal/nn"
	"repro/internal/pruner"
)

const personalizationVersion = 4

// maxCount bounds every repeated-field count in a record. Real records
// have a handful of classes, layers and iterations; anything near the bound
// is corruption, and rejecting it early keeps hostile inputs from driving
// large allocation or parse loops.
const maxCount = 1 << 20

// PersonalizationRecord is the serializable metadata of one personalized
// model; the tenant's model delta rides along in the same stream.
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

// SavePersonalization writes the record of the pruned classifier clf: its
// model delta (EncodeModelDelta) under rec's metadata.
func SavePersonalization(w io.Writer, rec PersonalizationRecord, clf *nn.Classifier) error {
	delta, err := EncodeModelDelta(clf, clf)
	if err != nil {
		return err
	}
	return WritePersonalization(w, rec, delta)
}

// WritePersonalization writes a version-4 record: rec's metadata, the model
// delta verbatim, and a crc64 trailer.
func WritePersonalization(w io.Writer, rec PersonalizationRecord, delta []byte) error {
	bw := &enc{w: w}
	raw(bw, magic)
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

	bw.u32(uint32(len(delta)))
	raw(bw, delta)
	bw.trailer()
	return bw.finish()
}

// LoadPersonalization restores a record written by SavePersonalization or
// WritePersonalization, applying its delta onto clf (ApplyModelDelta with
// clf as both base and destination): clf's masks, kept weights and norm
// statistics become the record's, and its pruned positions keep whatever
// clf held. clf must have the record's architecture; its values need not be
// any particular model's. A record that fails to load leaves clf untouched.
func LoadPersonalization(r io.Reader, clf *nn.Classifier) (PersonalizationRecord, error) {
	rec, v, err := readPersonalization(r, clf)
	if err != nil {
		return rec, err
	}
	return rec, v.applyTo(clf)
}

// ReadPersonalization reads a record without applying it: its metadata and
// its delta, which is known to parse against base's architecture.
func ReadPersonalization(r io.Reader, base *nn.Classifier) (PersonalizationRecord, []byte, error) {
	rec, v, err := readPersonalization(r, base)
	if err != nil {
		return rec, nil, err
	}
	return rec, v.delta, nil
}

// readPersonalization is the one record reader: the metadata, the delta
// under its length bound, the trailer, then the delta's view over base.
func readPersonalization(r io.Reader, base *nn.Classifier) (PersonalizationRecord, *DeltaView, error) {
	var rec PersonalizationRecord
	br := &dec{r: r}
	if err := br.header(magic, personalizationVersion, "checkpoint: personalization"); err != nil {
		return rec, nil, err
	}
	br.startSum()

	rec.Key = br.str()
	nc := int(br.u32())
	if br.err != nil {
		return rec, nil, br.err
	}
	if nc <= 0 || nc > maxCount {
		return rec, nil, fmt.Errorf("checkpoint: implausible class count %d", nc)
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
		return rec, nil, br.err
	}
	if nl < 0 || nl > maxCount {
		return rec, nil, fmt.Errorf("checkpoint: implausible layer count %d", nl)
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
			return rec, nil, br.err
		}
	}
	ni := int(br.u32())
	if br.err != nil {
		return rec, nil, br.err
	}
	if ni < 0 || ni > maxCount {
		return rec, nil, fmt.Errorf("checkpoint: implausible iteration count %d", ni)
	}
	rec.Report.Iterations = make([]pruner.IterStat, ni)
	for i := range rec.Report.Iterations {
		it := &rec.Report.Iterations[i]
		it.Iteration = int(br.u32())
		it.Kappa = br.f64()
		it.Sparsity = br.f64()
		it.Loss = br.f64()
		if br.err != nil {
			return rec, nil, br.err
		}
	}

	n := int(br.u32())
	if br.err != nil {
		return rec, nil, br.err
	}
	if bound := deltaBound(base); n > bound {
		return rec, nil, fmt.Errorf("checkpoint: record declares a %d-byte delta, the model admits at most %d", n, bound)
	}
	delta := make([]byte, n)
	br.read(delta)
	if err := br.checkTrailer("personalization record"); err != nil {
		return rec, nil, err
	}
	v, err := ViewModelDelta(delta, base)
	if err != nil {
		return rec, nil, fmt.Errorf("checkpoint: personalization record: %w", err)
	}
	return rec, v, nil
}
