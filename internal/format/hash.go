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
// dimensions, row starts, column indices, and the exact bit pattern of every
// stored value. Two plans with equal fingerprints are (hash collisions
// aside) interchangeable — same shape, same non-zero layout, same values —
// so they compile to identical kernels and identical int8 codes. It folds
// what a CSR image of the plan holds (Rows+1 row starts, then each entry's
// absolute column and value), not the segment spans, so a fingerprint does
// not depend on how a row is cut into segments.
func (p *Plan) Fingerprint() uint64 {
	h := HashInit.Uint32(uint32(p.Rows)).Uint32(uint32(p.Cols))
	ns := segs(p.Cols)
	for r := range p.Rows + 1 {
		h = h.Uint32(uint32(p.RowPtr[r*ns]))
	}
	p.Entries(func(i int, v float64) {
		h = h.Uint32(uint32(i % p.Cols)).Uint64(math.Float64bits(v))
	})
	return uint64(h)
}

// Hash folds the image's layout, codes and scales into h. NegPtr and the
// row sums are functions of the codes, so they add nothing. Like
// Fingerprint it folds a CSR image's identity: Rows+1 row starts, then each
// row's codes with their absolute columns, its positives in ascending
// column order, then its negatives.
func (q *QuantPlan) Hash(h Hash64) Hash64 {
	h = h.Uint64(uint64(q.Rows)).Uint64(uint64(q.Cols))
	ns := segs(q.Cols)
	for r := range q.Rows + 1 {
		h = h.Uint64(uint64(uint32(q.RowPtr[r*ns])))
	}
	for r := range q.Rows {
		for _, neg := range [2]bool{false, true} {
			for k := r * ns; k < (r+1)*ns; k++ {
				i, end := q.RowPtr[k], q.NegPtr[k]
				if neg {
					i, end = end, q.RowPtr[k+1]
				}
				for ; i < end; i++ {
					col := uint64(k%ns)*SegCols + uint64(q.Col[i])
					h = h.Uint64(col<<8 | uint64(uint8(q.Code[i])))
				}
			}
		}
	}
	for _, s := range q.RowScale {
		h = h.Uint64(math.Float64bits(s))
	}
	return h
}
