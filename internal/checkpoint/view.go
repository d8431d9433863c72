package checkpoint

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// DeltaView reads one tenant's values straight out of its delta, without a
// classifier to apply it to. ViewModelDelta accepts exactly the deltas
// ApplyModelDelta accepts — header, architecture against base, every entry's
// structure, and the CRC-64 trailer over the whole record — before a view
// exists; each call then decodes one parameter into memory it allocates and
// the caller owns, bit-equal to what apply-then-read would yield. Nothing
// handed out aliases the delta, the base or an earlier result. The view
// itself holds both: drop it when the reads are done.
type DeltaView struct {
	delta  []byte
	params map[string]deltaEntry
	stats  map[string]int // offset of a norm layer's stored means (then variances); absent = base's
}

type deltaEntry struct {
	base *nn.Param
	mask int // offset of the packed mask bits; 0 without a mask
	mode byte
	vals int // offset of the kept / dense values
}

// ViewModelDelta validates delta against base and returns the view over it.
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
	v := &DeltaView{delta: delta, params: make(map[string]deltaEntry, len(bp)), stats: make(map[string]int, len(bs))}
	for _, p := range bp {
		if name, ok := br.expect(p.Name); br.err == nil && !ok {
			return nil, fmt.Errorf("checkpoint: delta param %q does not match model param %q", name, p.Name)
		}
		e := deltaEntry{base: p}
		kept, n := 0, p.W.Len()
		if br.u8() == 1 {
			if e.mask = skip((n + 7) / 8); br.err == nil {
				for i := 0; i < n; i += 8 {
					b := delta[e.mask+i/8]
					if n-i < 8 {
						b &= 1<<(n-i) - 1 // padding bits keep nothing
					}
					kept += bits.OnesCount8(b)
				}
			}
		}
		switch e.mode = br.u8(); e.mode {
		case deltaSame:
		case deltaKept:
			if count := int(br.u32()); br.err == nil && (e.mask == 0 || count != kept) {
				return nil, fmt.Errorf("checkpoint: delta param %q: %d stored values for %d kept positions", p.Name, count, kept)
			}
			e.vals = skip(8 * kept)
		case deltaDense:
			e.vals = skip(8 * n)
		default:
			if br.err == nil {
				return nil, fmt.Errorf("checkpoint: delta param %q: unknown mode %d", p.Name, e.mode)
			}
		}
		v.params[p.Name] = e
	}
	if n := int(br.u32()); br.err == nil && n != len(bs) {
		return nil, fmt.Errorf("checkpoint: delta stores %d norm stats, model has %d", n, len(bs))
	}
	for _, s := range bs {
		if name, ok := br.expect(s.name); br.err == nil && !ok {
			return nil, fmt.Errorf("checkpoint: delta norm stat %q does not match %q", name, s.name)
		}
		switch mode := br.u8(); mode {
		case deltaSame:
		case deltaDense:
			v.stats[s.name] = skip(16 * len(s.mean))
		default:
			if br.err == nil {
				return nil, fmt.Errorf("checkpoint: delta norm stat %q: unknown mode %d", s.name, mode)
			}
		}
	}
	if err := br.checkTrailer("delta"); err != nil {
		return nil, err
	}
	return v, nil
}

// weights rebuilds the named parameter's W — base overlaid with the kept or
// dense values — and, when masked is set, multiplies the stored mask in.
func (v *DeltaView) weights(name string, masked bool) []float64 {
	e, ok := v.params[name]
	if !ok {
		panic("checkpoint: delta view has no parameter " + name)
	}
	w := slices.Clone(e.base.W.Data)
	if e.mode == deltaDense {
		readF64s(w, v.delta[e.vals:])
	}
	if e.mask == 0 {
		return w
	}
	packed, vals := v.delta[e.mask:], v.delta[e.vals:]
	for i := range w {
		m := packed[i/8] >> (i % 8) & 1
		if m == 1 && e.mode == deltaKept {
			w[i] = math.Float64frombits(le.Uint64(vals))
			vals = vals[8:]
		}
		if masked {
			w[i] *= float64(m)
		}
	}
	return w
}

func readF64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(src[8*i:]))
	}
}

// Effective returns the tenant's W ⊙ Mask for base parameter p as a
// [p.Rows, p.Cols] matrix.
func (v *DeltaView) Effective(p *nn.Param) *tensor.Tensor {
	return tensor.FromSlice(v.weights(p.Name, true), p.Rows, p.Cols)
}

// Values returns the tenant's unmasked values for base parameter p.
func (v *DeltaView) Values(p *nn.Param) []float64 { return v.weights(p.Name, false) }

// NormStats returns the tenant's running mean and variance for base layer bn.
func (v *DeltaView) NormStats(bn *nn.BatchNorm2D) (mean, variance []float64) {
	mean, variance = slices.Clone(bn.RunMean.Data), slices.Clone(bn.RunVar.Data)
	if at, ok := v.stats[bn.Gamma.Name]; ok {
		readF64s(mean, v.delta[at:])
		readF64s(variance, v.delta[at+8*len(mean):])
	}
	return mean, variance
}
