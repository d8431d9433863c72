package format

import (
	"math"
	"slices"
	"sync"
)

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
// so they compile to identical kernels and identical int8 codes. The
// fingerprint is invariant under BindSlab: binding never changes a value,
// only where it is stored.
func (p *Plan) Fingerprint() uint64 {
	h := HashInit.Uint32(uint32(p.Rows)).Uint32(uint32(p.Cols))
	for _, v := range p.RowPtr {
		h = h.Uint32(uint32(v))
	}
	for r := 0; r < p.Rows; r++ {
		for i := p.RowPtr[r]; i < p.RowPtr[r+1]; i++ {
			h = h.Uint32(uint32(p.Col[i])).Uint64(math.Float64bits(p.value(r, i)))
		}
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

// plansEqual reports full structural and value equality, reading values
// through the slab-aware accessor so an owned plan compares equal to its
// slab-bound twin.
func plansEqual(a, b *Plan) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.Col, b.Col) {
		return false
	}
	for r := 0; r < a.Rows; r++ {
		for i := a.RowPtr[r]; i < a.RowPtr[r+1]; i++ {
			if a.value(r, i) != b.value(r, i) {
				return false
			}
		}
	}
	return true
}

// quantPlansEqual reports equality of everything QuantPlan.Hash covers.
func quantPlansEqual(a, b *QuantPlan) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.Col, b.Col) && slices.Equal(a.Code, b.Code) && slices.Equal(a.RowScale, b.RowScale)
}

// Registry deduplicates what engines execute — float plans and int8 images —
// across tenants (package comment, "The registry"). Entries are
// reference-counted; an engine returns its references with Release when it
// is evicted, and an entry whose count reaches zero is dropped so the memory
// can be reclaimed. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	entries map[uint64]*regEntry
}

// regEntry holds a plan or an image, never both.
type regEntry struct {
	plan  *Plan
	quant *QuantPlan
	refs  int
}

// Ref is one held reference to a registry entry. The zero Ref holds
// nothing and releases as a no-op.
type Ref struct {
	fp uint64
	e  *regEntry
}

// NewRegistry returns an empty plan registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[uint64]*regEntry)}
}

// Intern registers p under fp, its Fingerprint (the caller has computed it
// already, and the registry never recomputes it), and returns the canonical
// instance for its content: p itself when it is the first of its kind, or
// the already-registered equal plan otherwise (p is then discarded by the
// caller and the shared instance's reference count grows). A fingerprint
// collision with non-equal content returns p with the zero Ref — the caller
// keeps a private copy, so collisions cost memory, never correctness.
func (reg *Registry) Intern(p *Plan, fp uint64) (*Plan, Ref) {
	e, ref := reg.intern(fp, &regEntry{plan: p})
	return e.plan, ref
}

// InternQuant is Intern for an int8 image, under fp = q.Hash(HashInit).
func (reg *Registry) InternQuant(q *QuantPlan, fp uint64) (*QuantPlan, Ref) {
	e, ref := reg.intern(fp, &regEntry{quant: q})
	return e.quant, ref
}

// intern returns the entry the caller should run from — the resident equal
// one, else fresh — and the reference it now holds on it (none when fresh
// lost its key to different content).
func (reg *Registry) intern(fp uint64, fresh *regEntry) (*regEntry, Ref) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	e := reg.entries[fp]
	switch {
	case e == nil:
		fresh.refs = 1
		reg.entries[fp] = fresh
		return fresh, Ref{fp, fresh}
	case fresh.plan != nil && e.plan != nil && plansEqual(e.plan, fresh.plan),
		fresh.quant != nil && e.quant != nil && quantPlansEqual(e.quant, fresh.quant):
		e.refs++
		return e, Ref{fp, e}
	}
	return fresh, Ref{}
}

// Release returns one reference, dropping the entry (and with it the
// registry's hold on the plan or image) when the last one goes. Each Ref is
// released at most once.
func (reg *Registry) Release(ref Ref) {
	if ref.e == nil {
		return
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if ref.e.refs--; ref.e.refs <= 0 && reg.entries[ref.fp] == ref.e {
		delete(reg.entries, ref.fp)
	}
}

// Stats reports the registry's resident state: distinct canonical entries,
// total outstanding references across them, and the owned bytes of the
// registered plans and int8 images (slab-backed value memory excluded, as
// everywhere).
func (reg *Registry) Stats() (plans, refs int, bytes int64) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, e := range reg.entries {
		plans++
		refs += e.refs
		if e.plan != nil {
			bytes += e.plan.SizeBytes()
		} else {
			bytes += e.quant.SizeBytes()
		}
	}
	return plans, refs, bytes
}
