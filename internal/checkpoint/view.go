package checkpoint

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/format"
	"repro/internal/nn"
)

// DeltaView reads one tenant's values straight out of its delta, without a
// classifier to apply it to. ViewModelDelta is the format's one parser: it
// checks the header, the architecture against base, every entry's structure
// and the CRC-64 trailer over the whole record before a view exists, and
// ApplyModelDelta is a view written back into a classifier. Each call then
// decodes one parameter, bit-equal to what apply-then-read yields: into
// memory the caller provides, writing that memory and nothing else, or as
// the non-zeros of its W ⊙ Mask handed to the caller's sink. It keeps no
// reference to either, and what it hands out are values, never a view of the
// delta or the base. The view itself holds both: drop it when the reads are
// done.
//
// Its entries are two slices in the order of base's Params and batch norms,
// found by name: a compile reads them in that order, and a lookup scans a few
// dozen entries, not the tenant's values. The view keeps no read position, so
// concurrent reads share it safely.
type DeltaView struct {
	delta  []byte
	params []deltaEntry
	stats  []statEntry
}

type deltaEntry struct {
	base *nn.Param
	mask int // offset of the packed mask bits; 0 without a mask
	vals int // offset of the kept (masked) or dense (unmasked) values
}

type statEntry struct {
	name string // the layer's γ name
	n    int    // the layer's channel count
	at   int    // offset of the stored means (then variances)
}

// ViewModelDelta validates delta against base's architecture and returns the
// view over it.
func ViewModelDelta(delta []byte, base *nn.Classifier) (*DeltaView, error) {
	rd := bytes.NewReader(delta)
	br := &dec{r: rd}
	if err := br.header(deltaMagic, deltaVersion, "checkpoint: delta"); err != nil {
		return nil, err
	}
	br.startSum()
	// skip passes over an n-byte payload, summed like any field, and
	// returns where it starts.
	skip := func(n int) int {
		at := len(delta) - rd.Len()
		for ; n > 0; n -= min(n, chunk) {
			br.take(min(n, chunk))
		}
		return at
	}
	bp, bs := base.Params(), bnStats(base)
	if n := int(br.u32()); br.err == nil && n != len(bp) {
		return nil, fmt.Errorf("checkpoint: delta stores %d params, model has %d", n, len(bp))
	}
	v := &DeltaView{delta: delta, params: make([]deltaEntry, 0, len(bp)), stats: make([]statEntry, 0, len(bs))}
	for _, p := range bp {
		if name, ok := br.expect(p.Name); br.err == nil && !ok {
			return nil, fmt.Errorf("checkpoint: delta param %q does not match model param %q", name, p.Name)
		}
		e := deltaEntry{base: p}
		n := p.W.Len()
		if br.u8() != 1 {
			e.vals = skip(8 * n)
			v.params = append(v.params, e)
			continue
		}
		kept := 0
		if e.mask = skip((n + 7) / 8); br.err == nil {
			for i := 0; i < n; i += 8 {
				b := delta[e.mask+i/8]
				if n-i < 8 {
					b &= 1<<(n-i) - 1 // padding bits keep nothing
				}
				kept += bits.OnesCount8(b)
			}
		}
		if count := int(br.u32()); br.err == nil && count != kept {
			return nil, fmt.Errorf("checkpoint: delta param %q: %d stored values for %d kept positions", p.Name, count, kept)
		}
		e.vals = skip(8 * kept)
		v.params = append(v.params, e)
	}
	if n := int(br.u32()); br.err == nil && n != len(bs) {
		return nil, fmt.Errorf("checkpoint: delta stores %d norm stats, model has %d", n, len(bs))
	}
	for _, s := range bs {
		if name, ok := br.expect(s.name); br.err == nil && !ok {
			return nil, fmt.Errorf("checkpoint: delta norm stat %q does not match %q", name, s.name)
		}
		v.stats = append(v.stats, statEntry{name: s.name, n: len(s.mean), at: skip(16 * len(s.mean))})
	}
	if err := br.checkTrailer("delta"); err != nil {
		return nil, err
	}
	return v, nil
}

// applyTo writes the viewed tenant into dst (ApplyModelDelta), which may be
// the view's own base. dst is checked against the view's architecture before
// anything is written.
func (v *DeltaView) applyTo(dst *nn.Classifier) error {
	dp, ds := dst.Params(), bnStats(dst)
	if len(dp) != len(v.params) || len(ds) != len(v.stats) {
		return fmt.Errorf("checkpoint: delta across architectures: %d params, %d norm stats vs base %d, %d", len(dp), len(ds), len(v.params), len(v.stats))
	}
	for _, p := range dp {
		if e, ok := v.param(p.Name); !ok || e.base.W.Len() != p.W.Len() {
			return fmt.Errorf("checkpoint: delta param %q: dst/base shapes differ", p.Name)
		}
	}
	for _, s := range ds {
		if e, ok := v.stat(s.name); !ok || e.n != len(s.mean) {
			return fmt.Errorf("checkpoint: delta norm stat %q: dst/base lengths differ", s.name)
		}
	}
	for _, p := range dp {
		e, _ := v.param(p.Name)
		v.overlay(e, p.W.Data)
		if e.mask == 0 {
			p.ClearMask()
		} else {
			v.unpackMask(e, p.EnsureMask().Data)
		}
	}
	for _, s := range ds {
		e, _ := v.stat(s.name)
		v.normStats(e, s.mean, s.variance)
	}
	return nil
}

// param is the entry of the parameter named name.
func (v *DeltaView) param(name string) (deltaEntry, bool) {
	for _, e := range v.params {
		if e.base.Name == name {
			return e, true
		}
	}
	return deltaEntry{}, false
}

// stat is the entry of the batch norm whose γ is named name.
func (v *DeltaView) stat(name string) (statEntry, bool) {
	for _, e := range v.stats {
		if e.name == name {
			return e, true
		}
	}
	return statEntry{}, false
}

// overlay writes e's tenant values into w: the stored dense values, or the
// base's overlaid at the positions the stored mask keeps with the kept ones.
// ValuesInto and ApplyModelDelta take a parameter's values from it.
func (v *DeltaView) overlay(e deltaEntry, w []float64) {
	if e.mask == 0 {
		readF64s(w, v.delta[e.vals:])
		return
	}
	copy(w, e.base.W.Data)
	packed, vals := v.delta[e.mask:], v.delta[e.vals:]
	for i := range w {
		if packed[i/8]>>(i%8)&1 == 1 {
			w[i] = math.Float64frombits(le.Uint64(vals))
			vals = vals[8:]
		}
	}
}

// unpackMask expands e's stored mask bits into m as {0,1} values.
func (v *DeltaView) unpackMask(e deltaEntry, m []float64) {
	packed := v.delta[e.mask:]
	for i := range m {
		m[i] = float64(packed[i/8] >> (i % 8) & 1)
	}
}

// normStats writes layer e's stored running mean and variance into mean and
// variance.
func (v *DeltaView) normStats(e statEntry, mean, variance []float64) {
	readF64s(mean, v.delta[e.at:])
	readF64s(variance, v.delta[e.at+8*e.n:])
}

// entryOf is p's entry, once n, the values a read of p covers, is checked
// to be the count the view holds for p.
func (v *DeltaView) entryOf(p *nn.Param, n int) deltaEntry {
	e, ok := v.param(p.Name)
	if !ok {
		panic("checkpoint: delta view has no parameter " + p.Name)
	}
	if m := e.base.W.Len(); n != m {
		panic(fmt.Sprintf("checkpoint: parameter %s has %d values, the read covers %d", p.Name, m, n))
	}
	return e
}

func readF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(src[8*i:]))
	}
}

// NonZerosInto hands dst every non-zero of the tenant's W ⊙ Mask for base
// parameter p with its row-major index, in ascending index order: the kept
// values the stored mask bits select, or an unmasked parameter's stored
// values, read straight from the delta. A pruned position holds no value
// here, so the base is never read.
func (v *DeltaView) NonZerosInto(p *nn.Param, dst format.EntrySink) {
	n := p.W.Len()
	e := v.entryOf(p, n)
	vals := v.delta[e.vals:]
	for i := range n {
		if e.mask != 0 && v.delta[e.mask+i/8]>>(i%8)&1 == 0 {
			continue
		}
		w := math.Float64frombits(le.Uint64(vals))
		vals = vals[8:]
		if w != 0 {
			dst.Add(i, w)
		}
	}
}

// ValuesInto writes the tenant's unmasked values for base parameter p into
// dst.
func (v *DeltaView) ValuesInto(p *nn.Param, dst []float64) {
	v.overlay(v.entryOf(p, len(dst)), dst)
}

// NormStatsInto writes the tenant's running mean and variance for base layer
// bn into mean and variance.
func (v *DeltaView) NormStatsInto(bn *nn.BatchNorm2D, mean, variance []float64) {
	e, ok := v.stat(bn.Gamma.Name)
	if !ok {
		panic("checkpoint: delta view has no norm stat " + bn.Gamma.Name)
	}
	if len(mean) != e.n || len(variance) != e.n {
		panic(fmt.Sprintf("checkpoint: norm stat %s has %d channels, dst %d and %d", bn.Gamma.Name, e.n, len(mean), len(variance)))
	}
	v.normStats(e, mean, variance)
}
