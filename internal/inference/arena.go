package inference

import (
	"sync/atomic"

	"repro/internal/tensor"
)

// arenaSlabFloats is the minimum slab size (elements). One slab comfortably
// holds several small-layer activations; big layers get a dedicated slab of
// exactly their size on first use.
const arenaSlabFloats = 1 << 16

// hdrChunk is the first header slab's length; each later one is as long as
// all before it together.
const hdrChunk = 16

// slabRun is one element type's bump allocator inside the arena: recycled
// slabs walked front to back, growing (never shrinking) as a pass demands.
type slabRun[T any] struct {
	slabs [][]T
	first [1][]T // backs slabs until a second slab is added
	slab  int    // slab currently being bump-allocated
	off   int    // offset into slabs[slab]
	held  int    // elements across all slabs
	drawn int    // elements handed out this pass
}

func (s *slabRun[T]) reset() { s.slab, s.off, s.drawn = 0, 0, 0 }

// alloc returns an n-element buffer with arbitrary contents. A slab it has
// to add is at least least elements long.
func (s *slabRun[T]) alloc(n, least int) []T {
	s.drawn += n
	for s.slab < len(s.slabs) {
		if sl := s.slabs[s.slab]; s.off+n <= len(sl) {
			out := sl[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
		s.slab++
		s.off = 0
	}
	s.add(max(n, least))
	s.off = n
	return s.slabs[s.slab][:n:n]
}

// add appends an n-element slab.
func (s *slabRun[T]) add(n int) {
	if s.slabs == nil {
		s.slabs = s.first[:0]
	}
	s.slabs = append(s.slabs, make([]T, n))
	s.held += n
}

// arena is the engine-owned scratch allocator behind one forward pass. It
// bump-allocates buffers out of recycled slabs and hands out recycled
// tensor headers, so the steady-state predict path performs (near) zero
// heap allocations: every im2col matrix, transpose, SpMM output, bias
// fan-out and batch concat lives in arena memory. Int8 engines additionally
// draw their packed activation-code and integer-accumulator words from a
// second slab run pooled exactly like the float slabs.
//
// Within one pass no allocation is ever reused — residual shortcuts can
// hold any earlier activation alive — so there is no aliasing to reason
// about; the whole arena resets at once when the pass completes and goes
// back to the engine's sync.Pool. Capacity is learned on the first pass per
// batch size (slabs grow, never shrink) and is stable afterwards; the pool
// discards arenas under memory pressure. The engine remembers the most any
// of its passes drew (arenaHigh), so an arena built after the pool let go of
// its last one is made in one step at that size (sized).
//
// Buffers come back with stale contents. Executors either overwrite every
// element (the Into kernels' documented contract) or ask for tensorZero
// when they accumulate with +=.
type arena struct {
	f64  slabRun[float64]
	u64  slabRun[uint64]
	hdrs slabRun[hdr] // recycled tensor headers
}

// hdr is a tensor header with room for its shape inline. A freshly
// compiled engine's first pass builds every header it will ever use — and on
// a churning server half the predicts are such a pass — so headers come many
// to an allocation, each slab as long as all before it, and carry their
// shape with them: a handful of objects per pass instead of two per tensor.
type hdr struct {
	t     tensor.Tensor
	shape [4]int // every executor's rank fits; a longer shape spills to the heap
}

// arenaHigh is the most one pass of an engine has drawn from its arena:
// headers, floats and words.
type arenaHigh struct {
	hdrs, f64, u64 atomic.Int64
}

// note raises the high-water to what a's pass drew.
func (h *arenaHigh) note(a *arena) {
	raise(&h.hdrs, a.hdrs.drawn)
	raise(&h.f64, a.f64.drawn)
	raise(&h.u64, a.u64.drawn)
}

func raise(v *atomic.Int64, n int) {
	for old := v.Load(); int64(n) > old && !v.CompareAndSwap(old, int64(n)); old = v.Load() {
	}
}

// sized returns an arena whose first slab of each kind holds the high-water,
// so a pass up to it allocates nothing more; an engine that has not served
// yet gets an empty arena that grows as its first pass demands.
func (h *arenaHigh) sized() *arena {
	a := &arena{}
	if n := int(h.hdrs.Load()); n > 0 {
		a.hdrs.add(max(n, hdrChunk))
	}
	if n := int(h.f64.Load()); n > 0 {
		a.f64.add(max(n, arenaSlabFloats))
	}
	if n := int(h.u64.Load()); n > 0 {
		a.u64.add(max(n, arenaSlabFloats))
	}
	return a
}

// reset recycles the arena for the next pass; memory is retained.
func (a *arena) reset() {
	a.f64.reset()
	a.u64.reset()
	a.hdrs.reset()
}

// alloc returns an n-float buffer with arbitrary contents.
func (a *arena) alloc(n int) []float64 {
	return a.f64.alloc(n, arenaSlabFloats)
}

// allocU64 returns an n-word buffer with arbitrary contents (the quantized
// SpMM's packed activation codes and 32-bit-lane accumulators).
func (a *arena) allocU64(n int) []uint64 {
	return a.u64.alloc(n, arenaSlabFloats)
}

// header returns a recycled tensor header with the given shape (data unset).
func (a *arena) header(shape []int) *tensor.Tensor {
	h := &a.hdrs.alloc(1, max(hdrChunk, a.hdrs.held))[0]
	h.t.Shape = append(h.shape[:0], shape...)
	return &h.t
}

// tensor returns an arena tensor with arbitrary contents; callers must
// overwrite every element (all Into kernels do).
func (a *arena) tensor(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	t := a.header(shape)
	t.Data = a.alloc(n)
	return t
}

// tensorZero returns a zero-filled arena tensor, for executors that
// accumulate with +=.
func (a *arena) tensorZero(shape ...int) *tensor.Tensor {
	t := a.tensor(shape...)
	clear(t.Data)
	return t
}

// view wraps existing data in a recycled header (a zero-copy reshape).
func (a *arena) view(data []float64, shape ...int) *tensor.Tensor {
	t := a.header(shape)
	t.Data = data
	return t
}
