// Package checkpoint serializes classifiers — weights, pruning masks and
// batch-norm running statistics — to compact, checksummed binary records,
// so a pre-trained universal model can be saved once and personalized many
// times (the deployment story of the paper), and a personalized tenant can
// be held warm and restored after a restart.
//
// There is one model format on disk: the v5 personalization record
// (personalization.go), a model delta (delta.go) under a fixed-size header
// (class set, accuracy, achieved sparsity, FLOPs ratio) and a CRC-64
// trailer. A saved universal model is a record
// serving every class. The record keeps masks, kept weights (an unmasked
// parameter whole) and norm statistics, never a weight at a pruned
// position, and its one reader fails closed.
//
// Both formats in the package — the v3 model delta and the v5 record that
// carries one — are written and read by one codec (codec.go) that works a
// slice at a time through a 4 KiB chunk. Each view (ViewModelDelta, which
// ApplyModelDelta runs) and record write or read (WritePersonalization,
// ReadPersonalization, LoadPersonalization) allocates one chunk and owns it
// until it returns; a delta encode (EncodeModelDelta, EncodeEngineDelta)
// sizes its output first and writes straight into it. There is no
// package-level buffer and no pool, because
// a hot tenant is read concurrently by its write-behind snapshot and by
// demotion, and scratch shared between calls is how one tenant's weights end
// up in another's record. The writer and the CRC-64 see one call per chunk,
// not one per value — on a file that is the difference between a syscall
// per float and one per 4 KiB. So the cost of a call is a handful of
// allocations set by the number of parameters (listing them, the chunk, the
// delta's bytes, the record's own strings), whatever their size.
//
// A loader asks its reader for exactly the bytes of the field it is
// decoding, never ahead: it consumes its record and not one byte after it,
// so records can sit back to back in a stream, and a loader handed a file
// needs no bufio in front of it (a buffering reader in front of a loader is
// harmless but takes what follows the record with it).
package checkpoint

import "repro/internal/nn"

// magic opens a personalization record; a delta opens with deltaMagic.
const magic = "CRSP"

// stat aliases one batch-norm layer's running buffers.
type stat struct {
	name     string
	mean     []float64
	variance []float64
}

// bnStats collects batch-norm running statistics in execution order, into
// one exactly sized slice.
func bnStats(clf *nn.Classifier) []stat {
	n := 0
	nn.Walk(clf.Net, func(l nn.Layer) {
		if _, ok := l.(*nn.BatchNorm2D); ok {
			n++
		}
	})
	out := make([]stat, 0, n)
	nn.Walk(clf.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			out = append(out, stat{
				name:     bn.Gamma.Name, // unique per layer
				mean:     bn.RunMean.Data,
				variance: bn.RunVar.Data,
			})
		}
	})
	return out
}
