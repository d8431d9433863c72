package checkpoint

import (
	"bytes"
	"fmt"

	"repro/internal/format"
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
//
// One encoder writes the format, from either of two sources: a tenant
// classifier (EncodeModelDelta) or the Float32 engine compiled from it
// (EncodeEngineDelta), which holds every value a delta stores: compiling
// from a delta view (inference.ParamSource) run in reverse. It is what lets
// a hot float tenant hold its weights once.

const (
	deltaMagic   = "CRSD"
	deltaVersion = 2 // v2 added the crc64 trailer

	deltaSame  = 0
	deltaKept  = 1
	deltaDense = 2
)

// EncodeModelDelta serializes tenant's personalized state as a delta over
// base. The two classifiers must share an architecture (same parameters in
// the same order with the same shapes).
func EncodeModelDelta(base, tenant *nn.Classifier) ([]byte, error) {
	bp, tp := base.Params(), tenant.Params()
	if len(bp) != len(tp) {
		return nil, fmt.Errorf("checkpoint: delta across architectures: %d vs %d params", len(bp), len(tp))
	}
	bs, ts := bnStats(base), bnStats(tenant)
	if len(bs) != len(ts) {
		return nil, fmt.Errorf("checkpoint: delta norm stats: %d vs base %d", len(ts), len(bs))
	}
	src := make([]tenantParam, len(tp))
	for i, p := range tp {
		if b := bp[i]; p.Name != b.Name || p.W.Len() != b.W.Len() {
			return nil, fmt.Errorf("checkpoint: delta param %d: %q/%d vs base %q/%d", i, p.Name, p.W.Len(), b.Name, b.W.Len())
		}
		src[i] = tenantParam{masked: p.Mask != nil, w: p.W.Data}
		if p.Mask != nil {
			src[i].mask = p.Mask.Data
		}
	}
	for i, s := range ts {
		if s.name != bs[i].name || len(s.mean) != len(bs[i].mean) {
			return nil, fmt.Errorf("checkpoint: delta norm stat %d: %q vs base %q", i, s.name, bs[i].name)
		}
	}
	return encodeDelta(bp, bs, src, ts)
}

// Compiled is a tenant as a compiled Float32 engine holds it — the second
// source the delta encoder reads, implemented by *inference.Engine (an
// interface because inference's tests import this package). Walk
// visits, in the order of the layer tree's Params, each parameter's values
// (a matrix's plan, whose entries are the non-zeros of W ⊙ Mask in index
// order, or a vector held verbatim: a depthwise W ⊙ Mask, a bias, γ or β),
// and, in batch-norm order, each norm layer's running statistics.
type Compiled interface {
	Walk(param func(plan *format.Plan, values []float64), norm func(mean, variance []float64)) error
}

// EncodeEngineDelta serializes the tenant a Float32 engine compiled from
// base's architecture holds, as a delta over base: the record
// EncodeModelDelta writes for the tenant classifier the engine was compiled
// from, byte for byte, for a masked tenant (every prunable parameter masked,
// no other) whose kept weights are all non-zero. An engine keeps no zero
// value, so a kept weight that is exactly ±0 comes back unkept; W ⊙ Mask is
// unchanged, so the record compiles to the same engine. Parameters carry a
// mask exactly when base marks them prunable.
func EncodeEngineDelta(base *nn.Classifier, eng Compiled) ([]byte, error) {
	bp, bs := base.Params(), bnStats(base)
	src := make([]tenantParam, len(bp))
	ts := make([]stat, len(bs))
	np, ns := 0, 0
	err := eng.Walk(func(plan *format.Plan, values []float64) {
		if np < len(src) {
			src[np] = tenantParam{masked: bp[np].Prunable, w: values, plan: plan}
		}
		np++
	}, func(mean, variance []float64) {
		if ns < len(ts) {
			ts[ns] = stat{mean: mean, variance: variance}
		}
		ns++
	})
	if err != nil {
		return nil, err
	}
	if np != len(bp) || ns != len(bs) {
		return nil, fmt.Errorf("checkpoint: engine holds %d params and %d norm stats, base has %d and %d", np, ns, len(bp), len(bs))
	}
	for i, p := range src {
		b := bp[i]
		if pl := p.plan; pl != nil && (pl.Rows != b.Rows || pl.Cols != b.Cols) || pl == nil && len(p.w) != b.W.Len() {
			return nil, fmt.Errorf("checkpoint: engine param %d does not have the shape of base %q", i, b.Name)
		}
	}
	for i, s := range ts {
		if len(s.mean) != len(bs[i].mean) || len(s.variance) != len(bs[i].variance) {
			return nil, fmt.Errorf("checkpoint: engine norm stat %d does not have the length of base %q", i, bs[i].name)
		}
		ts[i].name = bs[i].name
	}
	return encodeDelta(bp, bs, src, ts)
}

// tenantParam is one tenant parameter as the encoder reads it: a source
// says where its values are, the sizing pass adds the record's mode and kept
// count.
type tenantParam struct {
	// masked is whether the record carries a mask for the parameter.
	masked bool
	// A classifier's values and, when masked, its mask; or a vector an
	// engine holds verbatim (W ⊙ Mask when masked).
	w, mask []float64
	// plan is a compiled matrix: its entries are the non-zeros of W ⊙ Mask.
	plan *format.Plan
	mode byte
	kept int
}

// each visits, in index order, the positions the tenant holds a value at:
// a mask's kept positions, a plan's entries, the non-zeros of a masked
// vector held as W ⊙ Mask, or every position of an unmasked vector.
func (p *tenantParam) each(visit func(j int, v float64)) {
	switch {
	case p.plan != nil:
		pl := p.plan
		for r := range pl.Rows {
			for i := pl.RowPtr[r]; i < pl.RowPtr[r+1]; i++ {
				visit(r*pl.Cols+int(pl.Col[i]), pl.Val[i])
			}
		}
	case p.mask != nil:
		for j, m := range p.mask {
			if m != 0 {
				visit(j, p.w[j])
			}
		}
	default:
		for j, v := range p.w {
			if v != 0 || !p.masked {
				visit(j, v)
			}
		}
	}
}

// dense visits all n positions of an unmasked plan in index order; a
// position the plan skips (it keeps no zero) reads as zero. An unmasked
// vector is its own dense form.
func (p *tenantParam) dense(n int, visit func(j int, v float64)) {
	next := 0
	p.each(func(j int, v float64) {
		for ; next < j; next++ {
			visit(next, 0)
		}
		visit(j, v)
		next = j + 1
	})
	for ; next < n; next++ {
		visit(next, 0)
	}
}

// encodeDelta is the one delta encoder, whichever source filled src and ts
// (checked against bp and bs, whose names it writes). A first pass picks each
// entry's mode and counts its kept values, which fixes the record's exact
// size; the second writes into a buffer of that size.
func encodeDelta(bp []*nn.Param, bs []stat, src []tenantParam, ts []stat) ([]byte, error) {
	size := 4 + 4 + 4 + 4 + 8 // magic, version, #params, #bnStats, crc
	for i := range src {
		p, b := &src[i], bp[i].W.Data
		size += 4 + len(bp[i].Name) + 1 + 1 // name, hasMask, mode
		same := true
		if !p.masked {
			if p.plan == nil {
				same = equalSlices(p.w, b)
			} else {
				p.dense(len(b), func(j int, v float64) { same = same && v == b[j] })
			}
			if !same {
				p.mode = deltaDense
				size += 8 * len(b)
			}
			continue
		}
		size += (len(b) + 7) / 8
		p.each(func(j int, v float64) {
			p.kept++
			same = same && v == b[j]
		})
		if !same {
			p.mode = deltaKept
			size += 4 + 8*p.kept
		}
	}
	statSame := func(i int) bool {
		return equalSlices(ts[i].mean, bs[i].mean) && equalSlices(ts[i].variance, bs[i].variance)
	}
	for i, s := range ts {
		size += 4 + len(bs[i].name) + 1
		if !statSame(i) {
			size += 8 * (len(s.mean) + len(s.variance))
		}
	}

	buf := bytes.NewBuffer(make([]byte, 0, size))
	bw := &enc{w: buf}
	bw.raw(deltaMagic)
	bw.u32(deltaVersion)
	bw.startSum()
	bw.u32(uint32(len(src)))
	put := func(_ int, v float64) { bw.f64(v) }
	for i := range src {
		p, n := &src[i], bp[i].W.Len()
		bw.str(bp[i].Name)
		switch {
		case !p.masked:
			bw.u8(0)
		case p.mask != nil:
			bw.u8(1)
			bw.bits(p.mask)
		default:
			bw.u8(1)
			// Pack the kept positions 8 to a byte, LSB first, as bits does.
			var cur byte
			at := 0
			p.each(func(j int, _ float64) {
				for ; at < j/8; at++ {
					bw.u8(cur)
					cur = 0
				}
				cur |= 1 << (j % 8)
			})
			for ; at < (n+7)/8; at++ {
				bw.u8(cur)
				cur = 0
			}
		}
		bw.u8(p.mode)
		switch p.mode {
		case deltaKept:
			bw.u32(uint32(p.kept))
			p.each(put)
		case deltaDense:
			if p.plan == nil {
				bw.f64s(p.w)
			} else {
				p.dense(n, put)
			}
		}
	}
	bw.u32(uint32(len(ts)))
	for i, s := range ts {
		bw.str(bs[i].name)
		if statSame(i) {
			bw.u8(deltaSame)
			continue
		}
		bw.u8(deltaDense)
		bw.f64s(s.mean)
		bw.f64s(s.variance)
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
