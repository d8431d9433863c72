package exp

import (
	"fmt"

	"repro/internal/export"
	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/pruner"
)

// MemoryRow is one model's deployed-size accounting.
type MemoryRow struct {
	Family   models.Family
	Sparsity float64
	// Bytes at 8-bit weight precision.
	DenseBytes, CRISPBytes, CSRBytes, ELLPACKBytes int64
	// ServedF32Bytes and ServedInt8Bytes are what the server holds for the
	// same pruned model: the MemoryFootprint of its Float32 and Int8
	// engines.
	ServedF32Bytes, ServedInt8Bytes int64
	Compression                     float64
	Accuracy                        float64
}

// MemoryTable quantifies the paper's "minimal memory consumption" claim:
// each model family is CRISP-pruned and its masked weights are encoded in
// the CRISP storage format (CSR fallback for block-exempt layers), compared
// against the dense model and the CSR/ELLPACK alternatives at 8-bit
// precision, and beside what the server holds: the model's compiled
// engines at both precisions.
func (h *Harness) MemoryTable() ([]MemoryRow, *Table) {
	ds := h.ImageNetLike
	sc := h.Scenario(ds, 5)
	p := pruner.NewCRISP(h.pruneOpts(0.85))
	o := p.Opts
	var rows []MemoryRow
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		clf, rep, acc := h.trial(f, ds, sc, p)
		ms, err := export.Sizes(clf, o.BlockSize, o.NM, 8)
		if err != nil {
			panic(fmt.Sprintf("exp: memory table for %s: %v", f, err))
		}
		var served [2]int64
		for i, prec := range []inference.Precision{inference.Float32, inference.Int8} {
			eng, err := inference.NewWithOptions(clf, o.BlockSize, o.NM, inference.CompileOptions{Precision: prec})
			if err != nil {
				panic(fmt.Sprintf("exp: compiling %s at %s: %v", f, prec, err))
			}
			served[i] = eng.MemoryFootprint()
		}
		rows = append(rows, MemoryRow{
			Family:          f,
			Sparsity:        rep.AchievedSparsity,
			DenseBytes:      ms.DenseBytes,
			CRISPBytes:      ms.FormatBytes["crisp"],
			CSRBytes:        ms.FormatBytes["csr"],
			ELLPACKBytes:    ms.FormatBytes["ellpack"],
			ServedF32Bytes:  served[0],
			ServedInt8Bytes: served[1],
			Compression:     ms.CompressionRatio("crisp"),
			Accuracy:        acc,
		})
	}
	t := &Table{
		Title:   "Memory: deployed model size at κ=0.85, 8-bit weights (" + h.Cfg.Scale.String() + ")",
		Columns: []string{"model", "sparsity", "dense-B", "crisp-B", "served-f32-B", "served-int8-B", "csr-B", "ellpack-B", "compression", "accuracy"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			string(r.Family), f3(r.Sparsity),
			fmt.Sprintf("%d", r.DenseBytes), fmt.Sprintf("%d", r.CRISPBytes),
			fmt.Sprintf("%d", r.ServedF32Bytes), fmt.Sprintf("%d", r.ServedInt8Bytes),
			fmt.Sprintf("%d", r.CSRBytes), fmt.Sprintf("%d", r.ELLPACKBytes),
			f1(r.Compression) + "x", f3(r.Accuracy),
		})
	}
	t.Notes = append(t.Notes, "biases/norm parameters and the classifier head are charged dense in every format",
		"served-*-B: Engine.MemoryFootprint of the same pruned model compiled at float32 / int8 (plans — a row pointer per 256-column segment of a row, a one-byte column offset and a float64 or an int8 code per kept weight —, biases, norm statistics, conv clip tables)")
	return rows, t
}
