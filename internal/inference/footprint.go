package inference

import "repro/internal/nn"

// MemoryFootprint reports the engine-owned resident bytes of the compiled
// state: the owned payloads of what the forward pass runs (a float plan or
// an int8 image per layer, never both), the depthwise layers' materialized
// effective weights, 20 bytes per float conv kernel position (the clip
// table a conv once cached; a pass now draws it as scratch), and the
// executors' copies of biases and norm vectors. An engine shares none of
// it, so summing footprints across engines never double-counts. Scratch is
// not charged: its arenas are pooled per engine, sized per pass shape, and
// dropped by the pool at will. Fixed at compile time.
func (e *Engine) MemoryFootprint() int64 { return e.footprint }

// Fingerprint is the engine's structural fingerprint: an FNV-64a hash over
// every compiled float plan's fingerprint in compile order — in an Int8
// engine too, where most of those plans were dropped once quantized. Two
// engines compiled from the same weights and masks always agree
// (compilation is deterministic), so the serving layer uses it to verify
// that a rebuilt engine reproduced the original compiled shape and values
// exactly. Fixed at compile time.
func (e *Engine) Fingerprint() uint64 { return uint64(e.fingerprint) }

// ModelBytes reports the resident bytes of a classifier's learnable state:
// dense weights, gradients, masks, and normalization running statistics.
// Nothing in the serving path holds a per-tenant clone any more; this is
// what one would cost, kept as the denominator the density tests measure
// the cache against.
func ModelBytes(clf *nn.Classifier) int64 {
	var n int64
	for _, p := range clf.Params() {
		n += int64(p.W.Len()) * 8
		if p.Grad != nil {
			n += int64(p.Grad.Len()) * 8
		}
		if p.Mask != nil {
			n += int64(p.Mask.Len()) * 8
		}
	}
	nn.Walk(clf.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			n += int64(len(bn.RunMean.Data)+len(bn.RunVar.Data)) * 8
		}
	})
	return n
}
