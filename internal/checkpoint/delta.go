package checkpoint

import (
	"bytes"
	"fmt"

	"repro/internal/nn"
)

// Model deltas are how the serving layer holds a tenant: one tenant's
// personalized state expressed against the universal model instead of as a
// full weight copy. Per parameter the delta stores the pruning mask
// (bit-packed) plus only the weight values the rebuilt engine can actually
// observe:
//
//	magic "CRSD" | u32 version | u32 #params
//	per param: name | u8 hasMask (+ packed mask bits) | u8 mode
//	  mode 0 (same):  nothing — every observable value equals the base
//	  mode 1 (kept):  u32 count | f64 kept-position values, in index order
//	  mode 2 (dense): f64 full weight tensor (unmasked param that diverged)
//	u32 #bnStats | per stat: name | u8 mode(0|2) | [f64 means | f64 vars]
//	u64 crc64/ECMA over everything after the version word (since v2)
//
// The delta is exact where it matters and deliberately lossy where it
// cannot matter: masked-out (pruned) weight values are not stored, and
// DeltaView (and ApplyModelDelta through it) reads them from the universal
// base. The effective weights W ⊙ Mask — the only thing inference, plan
// compilation and deterministic int8 quantization ever read — are
// reproduced bit-for-bit, so a rebuilt engine is bit-identical on the float
// path and QuantSignature-identical on the int8 path. Gradients are not
// stored (serving never trains); at typical CRISP sparsity the record is a
// small fraction of a full model copy.

const (
	deltaMagic   = "CRSD"
	deltaVersion = 2 // v2 added the crc64 trailer

	deltaSame  = 0
	deltaKept  = 1
	deltaDense = 2
)

// EncodeModelDelta serializes tenant's personalized state as a delta over
// base. The two classifiers must share an architecture (same parameters in
// the same order with the same shapes). A first pass picks each entry's
// mode and counts its kept values, which fixes the record's exact size; the
// second writes into a buffer of that size.
func EncodeModelDelta(base, tenant *nn.Classifier) ([]byte, error) {
	bp, tp := base.Params(), tenant.Params()
	if len(bp) != len(tp) {
		return nil, fmt.Errorf("checkpoint: delta across architectures: %d vs %d params", len(bp), len(tp))
	}
	bs, ts := bnStats(base), bnStats(tenant)
	if len(bs) != len(ts) {
		return nil, fmt.Errorf("checkpoint: delta norm stats: %d vs base %d", len(ts), len(bs))
	}
	type entry struct {
		mode byte
		kept int
	}
	plan := make([]entry, len(tp)+len(ts))
	size := 4 + 4 + 4 + 4 + 8 // magic, version, #params, #bnStats, crc
	for i, p := range tp {
		b := bp[i]
		if p.Name != b.Name || p.W.Len() != b.W.Len() {
			return nil, fmt.Errorf("checkpoint: delta param %d: %q/%d vs base %q/%d", i, p.Name, p.W.Len(), b.Name, b.W.Len())
		}
		size += 4 + len(p.Name) + 1 + 1 // name, hasMask, mode
		if p.Mask == nil {
			if !equalSlices(p.W.Data, b.W.Data) {
				plan[i].mode = deltaDense
				size += 8 * p.W.Len()
			}
			continue
		}
		size += (p.W.Len() + 7) / 8
		kept, same := 0, true
		for j, m := range p.Mask.Data {
			if m != 0 {
				kept++
				if p.W.Data[j] != b.W.Data[j] {
					same = false
				}
			}
		}
		if !same {
			plan[i] = entry{deltaKept, kept}
			size += 4 + 8*kept
		}
	}
	for i, s := range ts {
		if s.name != bs[i].name || len(s.mean) != len(bs[i].mean) {
			return nil, fmt.Errorf("checkpoint: delta norm stat %d: %q vs base %q", i, s.name, bs[i].name)
		}
		size += 4 + len(s.name) + 1
		if !equalSlices(s.mean, bs[i].mean) || !equalSlices(s.variance, bs[i].variance) {
			plan[len(tp)+i].mode = deltaDense
			size += 8 * (len(s.mean) + len(s.variance))
		}
	}

	buf := bytes.NewBuffer(make([]byte, 0, size))
	bw := &enc{w: buf}
	bw.raw(deltaMagic)
	bw.u32(deltaVersion)
	bw.startSum()
	bw.u32(uint32(len(tp)))
	for i, p := range tp {
		bw.str(p.Name)
		bw.mask(p)
		bw.u8(plan[i].mode)
		switch plan[i].mode {
		case deltaKept:
			bw.u32(uint32(plan[i].kept))
			bw.f64sKept(p.W.Data, p.Mask.Data)
		case deltaDense:
			bw.f64s(p.W.Data)
		}
	}
	bw.u32(uint32(len(ts)))
	for i, s := range ts {
		bw.str(s.name)
		mode := plan[len(tp)+i].mode
		bw.u8(mode)
		if mode == deltaDense {
			bw.f64s(s.mean)
			bw.f64s(s.variance)
		}
	}
	bw.trailer()
	if err := bw.finish(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ApplyModelDelta rebuilds the tenant state encoded by EncodeModelDelta
// into dst, reading unstored values from base: dst's weights become the
// universal weights overlaid with the delta's kept/dense values, its masks
// become the stored masks, and its norm statistics the stored (or
// universal) ones. dst and base must share the encoder's architecture. It is
// the view (ViewModelDelta) written back, so a delta the view rejects, or a
// dst of another architecture, fails before dst is written at all.
func ApplyModelDelta(delta []byte, base, dst *nn.Classifier) error {
	v, err := ViewModelDelta(delta, base)
	if err != nil {
		return err
	}
	dp, ds := dst.Params(), bnStats(dst)
	if len(dp) != len(v.params) || len(ds) != len(v.stats) {
		return fmt.Errorf("checkpoint: delta across architectures: %d params, %d norm stats vs base %d, %d", len(dp), len(ds), len(v.params), len(v.stats))
	}
	for _, p := range dp {
		if e, ok := v.params[p.Name]; !ok || e.base.W.Len() != p.W.Len() {
			return fmt.Errorf("checkpoint: delta param %q: dst/base shapes differ", p.Name)
		}
	}
	for _, s := range ds {
		if e, ok := v.stats[s.name]; !ok || len(e.base.mean) != len(s.mean) {
			return fmt.Errorf("checkpoint: delta norm stat %q: dst/base lengths differ", s.name)
		}
	}
	for _, p := range dp {
		e := v.params[p.Name]
		v.overlay(e, p.W.Data)
		if e.mask == 0 {
			p.ClearMask()
		} else {
			v.unpackMask(e, p.EnsureMask().Data)
		}
	}
	for _, s := range ds {
		v.normStats(v.stats[s.name], s.mean, s.variance)
	}
	return nil
}

// equalSlices reports elementwise equality (bit-level intent: weights are
// finite, so == matches bit equality here).
func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}
