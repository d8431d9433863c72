package checkpoint

// Personalization records are the durable form of one serving-layer tenant:
// the tenant's model delta (delta.go) under its header — the class set it
// was pruned for, the measured held-out accuracy and the pruning run's
// fixed-size summary (pruner.Summary). They are what the personalization
// server snapshots to disk so a restart can reload engines instead of
// re-running the prune+fine-tune pipeline per tenant. The record carries the
// very bytes the server holds a warm tenant as, under the very header a hot
// or warm tenant holds, so writing one builds no model and reading one back
// needs none. A saved universal model is a record too, whose class set is
// every class.
//
// The record is version 5 of the checkpoint stream (same magic, same
// endian-fixed primitives):
//
//	magic "CRSP" | u32 5
//	| key | u32 #classes | u32 classes (sorted ids)
//	| f64 accuracy | f64 achieved sparsity | f64 flopsRatio
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
// carries every value a loader reads. The readers accept version 5 only.
// Version 4 (the same delta under the full pruning report: method, target,
// a row per layer and per pruning round), version 3 (the dense-classifier
// record) and version 2 (v3 minus the trailer) fail at the header; a server
// quarantines such a record and re-prunes the tenant once, which — pruning
// being deterministic in (base, class set) — yields the same tenant. A model
// saved at version 4, or as the version-1 whole-classifier stream of older
// builds, fails at the header too; such a model is saved again.

import (
	"fmt"
	"io"

	"repro/internal/nn"
	"repro/internal/pruner"
)

const personalizationVersion = 5

// maxCount bounds a record's class count. Real records have a handful of
// classes; anything near the bound is corruption, and rejecting it early
// keeps hostile inputs from driving large allocation or parse loops.
const maxCount = 1 << 20

// PersonalizationRecord is the header of one personalized model: what the
// record stores over the tenant's model delta, and what the serving layer
// holds of a hot or warm tenant besides its engine or delta. Besides Key
// and Classes it is fixed-size.
type PersonalizationRecord struct {
	// Key is the canonical cache key (sorted, deduplicated class ids joined
	// by commas), as produced by the serving layer.
	Key string
	// Classes is the canonical class set.
	Classes []int
	// Accuracy is top-1 accuracy on held-out samples of the classes.
	Accuracy float64
	// Report is the pruning run's summary (pruner.Report.Summary).
	Report pruner.Summary
}

// SavePersonalization writes the record of the pruned classifier clf: its
// model delta (EncodeModelDelta) under the header rec.
func SavePersonalization(w io.Writer, rec PersonalizationRecord, clf *nn.Classifier) error {
	delta, err := EncodeModelDelta(clf, clf)
	if err != nil {
		return err
	}
	return WritePersonalization(w, rec, delta)
}

// WritePersonalization writes a version-5 record: the header rec, the model
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
	bw.f64(rec.Report.AchievedSparsity)
	bw.f64(rec.Report.FLOPsRatio)

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

// ReadPersonalization reads a record without applying it: its header and
// its delta, which is known to parse against base's architecture.
func ReadPersonalization(r io.Reader, base *nn.Classifier) (PersonalizationRecord, []byte, error) {
	rec, v, err := readPersonalization(r, base)
	if err != nil {
		return rec, nil, err
	}
	return rec, v.delta, nil
}

// readPersonalization is the one record reader: the header, the delta
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
	rec.Report.AchievedSparsity = br.f64()
	rec.Report.FLOPsRatio = br.f64()

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
