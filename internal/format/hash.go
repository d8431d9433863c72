package format

import "math"

// Hash64 is a running FNV-1a state. Folding bytes in by value (no hash.Hash
// behind an interface, no per-word buffer) makes a fingerprint a plain loop
// over the plan; the values are hash/fnv's New64a bit for bit.
type Hash64 uint64

// HashInit is the empty FNV-1a state.
const HashInit Hash64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// Uint32 folds v in as four little-endian bytes.
func (h Hash64) Uint32(v uint32) Hash64 {
	for i := 0; i < 4; i++ {
		h = (h ^ Hash64(byte(v>>(8*i)))) * fnvPrime64
	}
	return h
}

// Uint64 folds v in as eight little-endian bytes.
func (h Hash64) Uint64(v uint64) Hash64 {
	return h.Uint32(uint32(v)).Uint32(uint32(v >> 32))
}

// Fingerprint returns an FNV-64a hash of the plan's complete identity:
// dimensions, row spans, column indices, and the exact bit pattern of every
// stored value. Two plans with equal fingerprints are (hash collisions
// aside) interchangeable — same shape, same non-zero layout, same values —
// so they compile to identical kernels and identical int8 codes.
func (p *Plan) Fingerprint() uint64 {
	h := HashInit.Uint32(uint32(p.Rows)).Uint32(uint32(p.Cols))
	for _, v := range p.RowPtr {
		h = h.Uint32(uint32(v))
	}
	for i, c := range p.Col {
		h = h.Uint32(uint32(c)).Uint64(math.Float64bits(p.Val[i]))
	}
	return uint64(h)
}

// Hash folds the image's layout, codes and scales into h. NegPtr and the
// row sums are functions of the codes, so they add nothing.
func (q *QuantPlan) Hash(h Hash64) Hash64 {
	h = h.Uint64(uint64(q.Rows)).Uint64(uint64(q.Cols))
	for _, p := range q.RowPtr {
		h = h.Uint64(uint64(uint32(p)))
	}
	for i, c := range q.Col {
		h = h.Uint64(uint64(uint32(c))<<8 | uint64(uint8(q.Code[i])))
	}
	for _, s := range q.RowScale {
		h = h.Uint64(math.Float64bits(s))
	}
	return h
}
