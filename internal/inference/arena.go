package inference

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// arena is an engine's scratch for one forward pass: one []float64, one
// []uint64 (int8 codes and accumulators) and one header slab, pooled per
// engine. Every buffer a pass takes is drawn from it, with stale contents.
//
// Buffers share space by liveness. Floats are drawn from both ends of the
// slab, each a stack. An executor runs through call with an output side: its
// result is drawn there (out), its scratch (tensor, alloc, allocU64) on the
// other side and in the words, and the scratch dies when call returns. An
// execSeq alternates its children's sides and frees each child's input once
// the next has returned, so activations ping-pong between the ends; a
// residual keeps its main branch's result as scratch until the add.
//
// The draws are a pure function of the executors and the input shape
// (passKey), which compile does not know. So an arena's first pass at a
// shape is preceded by a sizing walk — the same executors, drawing nothing
// and running no kernel (fill) — whose most floats held at once, most words
// and headers are the arena's plan. Slabs are made at the plan's size, one
// step each, and remade when a later plan outgrows them; replaying the draws
// in order puts every buffer where the walk did. A pass that drew other than
// its plan panics before it answers.
// Headers are not reused; compile bounds them (hdrs).
type arena struct {
	f64  []float64
	u64  []uint64
	hdrs []hdr
	// used is the floats each side holds, words the words drawn, side the
	// running executor's output side.
	used        [2]int
	words, side int
	// sizing marks the walk that plans the arena: draws are counted, not
	// handed out, and executors run no kernel (fill).
	sizing bool
	key    passKey
	// plan is what a pass over key draws, drew what this pass has so far.
	plan, drew scratch
}

// scratch is what a pass draws: the most floats held at once, the most
// words, and the headers.
type scratch struct{ f64, u64, hdrs int }

// passKey is what a pass's plan depends on besides the engine: the shape of
// its input (every executor's rank fits), and whether it stacks samples.
type passKey struct {
	shape   [4]int
	stacked bool
}

// hdr is a tensor header with room for its shape inline, so a pass's headers
// come from one allocation and carry their shapes with them.
type hdr struct {
	t     tensor.Tensor
	shape [4]int // a longer shape spills to the heap
}

// poisonFreed makes every range a pass frees read NaN (words: all ones)
// from then on, so a plan that frees a buffer before its last reader is done
// shows in the logits. Tests set it.
var poisonFreed bool

func poisonRange[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// prepare readies a for a pass over xs: planned for their shape, with slabs
// that hold the plan.
func (a *arena) prepare(root execLayer, xs []*tensor.Tensor) {
	k := passKey{stacked: len(xs) > 1}
	copy(k.shape[:], xs[0].Shape)
	for _, x := range xs[1:] {
		k.shape[0] += x.Shape[0]
	}
	if k != a.key {
		a.sizing = true
		a.run(root, xs)
		a.plan, a.key, a.sizing = a.drew, k, false
		a.rewind()
	}
	if len(a.f64) < a.plan.f64 {
		a.f64 = make([]float64, a.plan.f64)
	}
	if len(a.u64) < a.plan.u64 {
		a.u64 = make([]uint64, a.plan.u64)
	}
}

// run is one pass: xs[0], or every sample stacked into one batch on side 1,
// through root with its output on side 0.
func (a *arena) run(root execLayer, xs []*tensor.Tensor) *tensor.Tensor {
	x := xs[0]
	if len(xs) > 1 {
		x = concatArena(xs, a)
	}
	return a.call(root, x, 0)
}

// call runs l on x with its output on side; what l draws as scratch dies
// when it returns.
func (a *arena) call(l execLayer, x *tensor.Tensor, side int) *tensor.Tensor {
	caller, held, words := a.side, a.used[side^1], a.words
	a.side = side
	y := l.forward(x, a)
	a.pop(side^1, held)
	if poisonFreed && !a.sizing {
		poisonRange(a.u64[words:a.words], ^uint64(0))
	}
	a.words, a.side = words, caller
	return y
}

// pop frees what side holds beyond held floats.
func (a *arena) pop(side, held int) {
	if poisonFreed && !a.sizing {
		lo, hi := held, a.used[side]
		if side == 1 {
			lo, hi = len(a.f64)-hi, len(a.f64)-lo
		}
		poisonRange(a.f64[lo:hi], math.NaN())
	}
	a.used[side] = held
}

// finish checks that the pass drew exactly its plan — one that drew more
// may have overlapped the two sides — and rewinds the arena for the next.
func (a *arena) finish() {
	if a.drew != a.plan {
		panic(fmt.Sprintf("inference: a pass drew %+v from its arena, its plan %+v", a.drew, a.plan))
	}
	a.pop(0, 0)
	a.pop(1, 0)
	a.rewind()
}

func (a *arena) rewind() { a.used, a.words, a.side, a.drew = [2]int{}, 0, 0, scratch{} }

// floats draws n floats on side, with arbitrary contents (none while sizing).
func (a *arena) floats(side, n int) []float64 {
	a.used[side] += n
	if a.drew.f64 = max(a.drew.f64, a.used[0]+a.used[1]); a.sizing {
		return nil
	}
	lo := a.used[0] - n
	if side == 1 {
		lo = len(a.f64) - a.used[1]
	}
	return a.f64[lo : lo+n : lo+n]
}

// alloc returns an n-float scratch buffer with arbitrary contents.
func (a *arena) alloc(n int) []float64 { return a.floats(a.side^1, n) }

// allocU64 returns an n-word scratch buffer with arbitrary contents (the
// quantized SpMM's packed activation codes and 32-bit-lane accumulators).
func (a *arena) allocU64(n int) []uint64 {
	a.words += n
	if a.drew.u64 = max(a.drew.u64, a.words); a.sizing {
		return nil
	}
	return a.u64[a.words-n : a.words : a.words]
}

// header returns the pass's next tensor header with the given shape (data
// unset).
func (a *arena) header(shape []int) *tensor.Tensor {
	h := &a.hdrs[a.drew.hdrs]
	a.drew.hdrs++
	h.t.Shape = append(h.shape[:0], shape...)
	return &h.t
}

// on returns a tensor drawn on side with arbitrary contents.
func (a *arena) on(side int, shape []int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	t := a.header(shape)
	t.Data = a.floats(side, n)
	return t
}

// tensor returns a scratch tensor with arbitrary contents; callers must
// overwrite every element (all Into kernels do).
func (a *arena) tensor(shape ...int) *tensor.Tensor { return a.on(a.side^1, shape) }

// out returns the running executor's result tensor, with arbitrary contents.
func (a *arena) out(shape ...int) *tensor.Tensor { return a.on(a.side, shape) }

// fill runs kernel, which writes y, unless a is sizing, and returns y.
func (a *arena) fill(y *tensor.Tensor, kernel func()) *tensor.Tensor {
	if !a.sizing {
		kernel()
	}
	return y
}

// view wraps existing data in a header (a zero-copy reshape).
func (a *arena) view(data []float64, shape ...int) *tensor.Tensor {
	t := a.header(shape)
	t.Data = data
	return t
}
