package checkpoint

import (
	"fmt"

	"repro/internal/format"
	"repro/internal/nn"
)

// Model deltas are how the serving layer holds a tenant, in memory and on
// disk: one tenant's personalized state without a full weight copy. Per
// parameter the delta stores the pruning mask (bit-packed) plus only the
// weight values the rebuilt engine can actually observe:
//
//	magic "CRSD" | u32 version | u32 #params
//	per param: name | u8 hasMask
//	  masked:   packed mask bits | u32 count | f64 kept-position values, in index order
//	  unmasked: f64 full weight tensor
//	u32 #bnStats | per stat: name | f64 means | f64 vars
//	u64 crc64/ECMA over everything after the version word (since v2)
//
// Every value a reader sees is stored, so a delta depends on the tenant
// alone: the base a caller passes supplies only the architecture (and, in
// ApplyModelDelta, the dead values written at pruned positions), and a
// delta restores over any model of its architecture.
//
// The delta is exact where it matters and deliberately lossy where it
// cannot matter: masked-out (pruned) weight values are not stored. The
// effective weights W ⊙ Mask — the only thing inference, plan compilation
// and deterministic int8 quantization ever read — are reproduced
// bit-for-bit, so a rebuilt engine is bit-identical on the float path and
// QuantSignature-identical on the int8 path. Gradients are not stored
// (serving never trains); at typical CRISP sparsity the delta is a small
// fraction of a full model copy.
//
// One encoder writes the format, from either of two sources: a tenant
// classifier (EncodeModelDelta) or the Float32 engine compiled from it
// (EncodeEngineDelta), which holds every value a delta stores: compiling
// from a delta view (inference.ParamSource) run in reverse. It is what lets
// a hot float tenant hold its weights once.

const (
	deltaMagic   = "CRSD"
	deltaVersion = 3 // v2 added the crc64 trailer; v3 dropped the mode byte and "same"
)

// EncodeModelDelta serializes tenant's personalized state as a delta. base
// names the architecture the tenant must share (same parameters in the same
// order with the same shapes); none of its values is read.
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
// interface because inference's tests import this package). Walk hands its
// visitor, in the order of the layer tree's Params, each parameter's values
// (a matrix's plan, whose entries are the non-zeros of W ⊙ Mask in index
// order, or a vector held verbatim: a depthwise W ⊙ Mask, a bias, γ or β),
// and, in batch-norm order, each norm layer's running statistics.
type Compiled interface {
	Walk(v interface {
		Param(plan *format.Plan, values []float64)
		Norm(mean, variance []float64)
	}) error
}

// EncodeEngineDelta serializes the tenant a Float32 engine compiled from
// base's architecture holds, as a delta: the record
// EncodeModelDelta writes for the tenant classifier the engine was compiled
// from, byte for byte, for a masked tenant (every prunable parameter masked,
// no other) whose kept weights are all non-zero. An engine keeps no zero
// value, so a kept weight that is exactly ±0 comes back unkept; W ⊙ Mask is
// unchanged, so the record compiles to the same engine. Parameters carry a
// mask exactly when base marks them prunable.
func EncodeEngineDelta(base *nn.Classifier, eng Compiled) ([]byte, error) {
	bp, bs := base.Params(), bnStats(base)
	w := &engineSource{bp: bp, src: make([]tenantParam, len(bp)), ts: make([]stat, len(bs))}
	if err := eng.Walk(w); err != nil {
		return nil, err
	}
	if w.np != len(bp) || w.ns != len(bs) {
		return nil, fmt.Errorf("checkpoint: engine holds %d params and %d norm stats, base has %d and %d", w.np, w.ns, len(bp), len(bs))
	}
	for i, p := range w.src {
		b := bp[i]
		if pl := p.plan; pl != nil && (pl.Rows != b.Rows || pl.Cols != b.Cols) || pl == nil && len(p.w) != b.W.Len() {
			return nil, fmt.Errorf("checkpoint: engine param %d does not have the shape of base %q", i, b.Name)
		}
	}
	for i, s := range w.ts {
		if len(s.mean) != len(bs[i].mean) || len(s.variance) != len(bs[i].variance) {
			return nil, fmt.Errorf("checkpoint: engine norm stat %d does not have the length of base %q", i, bs[i].name)
		}
		w.ts[i].name = bs[i].name
	}
	return encodeDelta(bp, bs, w.src, w.ts)
}

// engineSource is the visitor EncodeEngineDelta walks an engine with: it
// lists what the engine hands back as the encoder's sources, and counts every
// call, so an engine that holds more or fewer values than base is caught
// rather than written.
type engineSource struct {
	bp     []*nn.Param
	src    []tenantParam
	ts     []stat
	np, ns int
}

func (w *engineSource) Param(plan *format.Plan, values []float64) {
	if w.np < len(w.src) {
		w.src[w.np] = tenantParam{masked: w.bp[w.np].Prunable, w: values, plan: plan}
	}
	w.np++
}

func (w *engineSource) Norm(mean, variance []float64) {
	if w.ns < len(w.ts) {
		w.ts[w.ns] = stat{mean: mean, variance: variance}
	}
	w.ns++
}

// tenantParam is one tenant parameter as the encoder reads it: a source
// says where its values are, the sizing pass adds the kept count.
type tenantParam struct {
	// masked is whether the record carries a mask for the parameter.
	masked bool
	// A classifier's values and, when masked, its mask; or a vector an
	// engine holds verbatim (W ⊙ Mask when masked).
	w, mask []float64
	// plan is a compiled matrix: its entries are the non-zeros of W ⊙ Mask.
	plan *format.Plan
	kept int
}

// each visits, in index order, the positions the tenant holds a value at:
// a mask's kept positions, a plan's entries, the non-zeros of a masked
// vector held as W ⊙ Mask, or every position of an unmasked vector.
func (p *tenantParam) each(visit func(j int, v float64)) {
	switch {
	case p.plan != nil:
		p.plan.Entries(visit)
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
// (checked against bp and bs, whose names it writes). A first pass counts
// each masked entry's kept values, which fixes the record's exact size; the
// second writes straight into the one buffer of that size it returns.
func encodeDelta(bp []*nn.Param, bs []stat, src []tenantParam, ts []stat) ([]byte, error) {
	size := 4 + 4 + 4 + 4 + 8 // magic, version, #params, #bnStats, crc
	for i := range src {
		p, n := &src[i], bp[i].W.Len()
		size += 4 + len(bp[i].Name) + 1 // name, hasMask
		if !p.masked {
			size += 8 * n
			continue
		}
		p.each(func(int, float64) { p.kept++ })
		size += (n+7)/8 + 4 + 8*p.kept
	}
	for i, s := range ts {
		size += 4 + len(bs[i].name) + 16*len(s.mean)
	}

	bw := &enc{buf: make([]byte, size)}
	raw(bw, deltaMagic)
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
			if p.plan == nil {
				bw.f64s(p.w)
			} else {
				p.dense(n, put)
			}
			continue
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
		bw.u32(uint32(p.kept))
		p.each(put)
	}
	bw.u32(uint32(len(ts)))
	for i, s := range ts {
		bw.str(bs[i].name)
		bw.f64s(s.mean)
		bw.f64s(s.variance)
	}
	bw.trailer()
	if err := bw.finish(); err != nil {
		return nil, err
	}
	if bw.n != size {
		return nil, fmt.Errorf("checkpoint: delta is %d bytes, sized %d", bw.n, size)
	}
	return bw.buf, nil
}

// deltaBound is the size of the largest delta base's architecture admits:
// every parameter masked with every position kept, every norm stat stored.
// A reader holds a declared delta length to it before allocating for it.
func deltaBound(base *nn.Classifier) int {
	size := 4 + 4 + 4 + 4 + 8
	for _, p := range base.Params() {
		n := p.W.Len()
		size += 4 + len(p.Name) + 1 + (n+7)/8 + 4 + 8*n
	}
	for _, s := range bnStats(base) {
		size += 4 + len(s.name) + 16*len(s.mean)
	}
	return size
}

// ApplyModelDelta rebuilds the tenant state encoded by EncodeModelDelta
// into dst: its masks become the stored masks, its weights and norm
// statistics the stored values, and its pruned positions — which the delta
// does not store and nothing reads — base's values. dst and base must share
// the encoder's architecture, and may be the same classifier. It is the view
// (ViewModelDelta) written back, so a delta the view rejects, or a dst of
// another architecture, fails before dst is written at all.
func ApplyModelDelta(delta []byte, base, dst *nn.Classifier) error {
	v, err := ViewModelDelta(delta, base)
	if err != nil {
		return err
	}
	return v.applyTo(dst)
}
