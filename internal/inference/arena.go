package inference

import "repro/internal/tensor"

// arenaSlabFloats is the minimum slab size (elements). One slab comfortably
// holds several small-layer activations; big layers get a dedicated slab of
// exactly their size on first use.
const arenaSlabFloats = 1 << 16

// slabRun is one element type's bump allocator inside the arena: recycled
// slabs walked front to back, growing (never shrinking) as a pass demands.
type slabRun[T uint64 | float64] struct {
	slabs [][]T
	slab  int // slab currently being bump-allocated
	off   int // offset into slabs[slab]
}

func (s *slabRun[T]) reset() { s.slab, s.off = 0, 0 }

// alloc returns an n-element buffer with arbitrary contents.
func (s *slabRun[T]) alloc(n int) []T {
	for s.slab < len(s.slabs) {
		if sl := s.slabs[s.slab]; s.off+n <= len(sl) {
			out := sl[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
		s.slab++
		s.off = 0
	}
	sz := arenaSlabFloats
	if n > sz {
		sz = n
	}
	s.slabs = append(s.slabs, make([]T, sz))
	s.off = n
	return s.slabs[s.slab][:n:n]
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
// discards arenas under memory pressure.
//
// Buffers come back with stale contents. Executors either overwrite every
// element (the Into kernels' documented contract) or ask for tensorZero
// when they accumulate with +=.
type arena struct {
	f64 slabRun[float64]
	u64 slabRun[uint64]

	hdrs [][]hdr // recycled tensor headers, hdrChunk to an allocation
	used int     // headers handed out this pass
}

// hdr is a tensor header with room for its shape inline. A freshly
// compiled engine's first pass builds every header it will ever use — and on
// a churning server half the predicts are such a pass — so headers come
// hdrChunk to an allocation and carry their shape with them: one object per
// sixteen tensors instead of two per tensor.
type hdr struct {
	t     tensor.Tensor
	shape [4]int // every executor's rank fits; a longer shape spills to the heap
}

const hdrChunk = 16

// reset recycles the arena for the next pass; memory is retained.
func (a *arena) reset() {
	a.f64.reset()
	a.u64.reset()
	a.used = 0
}

// alloc returns an n-float buffer with arbitrary contents.
func (a *arena) alloc(n int) []float64 {
	return a.f64.alloc(n)
}

// allocU64 returns an n-word buffer with arbitrary contents (the quantized
// SpMM's packed activation codes and 32-bit-lane accumulators).
func (a *arena) allocU64(n int) []uint64 {
	return a.u64.alloc(n)
}

// header returns a recycled tensor header with the given shape (data unset).
func (a *arena) header(shape []int) *tensor.Tensor {
	if a.used == len(a.hdrs)*hdrChunk {
		a.hdrs = append(a.hdrs, make([]hdr, hdrChunk))
	}
	h := &a.hdrs[a.used/hdrChunk][a.used%hdrChunk]
	a.used++
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
