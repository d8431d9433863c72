package inference

import (
	"math"
	"sync"

	"repro/internal/format"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// SharedWeights is the compile-time view of the universal model every
// tenant prunes: one immutable value slab per parameter (aliasing the base
// classifier's weight storage — referenced, never cloned) plus a lazy cache
// of universal effective tensors for the one layer type that executes
// masked-dense (depthwise kernels). Engines compiled with
// CompileOptions.Shared bind their plans to these slabs whenever the
// tenant's kept values still equal the universal weights, and borrow the
// cached effective tensors whenever the tenant's effective weights equal the
// universal parameter's — so per-tenant memory shrinks to index data plus
// only the layers that actually diverged.
//
// The base classifier must not be trained or re-pruned while engines built
// against its SharedWeights are alive. One SharedWeights is safe for
// concurrent use by many compilations.
type SharedWeights struct {
	params map[string]*nn.Param
	slabs  map[string]*format.ValueSlab

	mu  sync.Mutex
	eff map[string]*tensor.Tensor
}

// NewSharedWeights snapshots the universal classifier's parameter set. The
// slabs alias base's weight tensors directly; no weight memory is copied.
func NewSharedWeights(base *nn.Classifier) *SharedWeights {
	s := &SharedWeights{
		params: make(map[string]*nn.Param),
		slabs:  make(map[string]*format.ValueSlab),
		eff:    make(map[string]*tensor.Tensor),
	}
	for _, p := range base.Params() {
		s.params[p.Name] = p
		s.slabs[p.Name] = format.NewValueSlab(p.MatrixView())
	}
	return s
}

// Slab returns the universal value slab for the named parameter, or nil.
func (s *SharedWeights) Slab(name string) *format.ValueSlab {
	if s == nil {
		return nil
	}
	return s.slabs[name]
}

// universalEffective returns the shared effective (W ⊙ Mask) tensor for the
// named parameter — a depthwise kernel: nothing else asks — when t, the
// tenant's effective weights, equals it bit for bit, and nil when the tenant
// diverged (the caller then keeps t). Either
// tensor computes the same results; borrowing only changes who owns the
// memory. The comparison multiplies the universal mask in on the fly, so a
// server whose tenants all diverged never materializes the shared tensor; it
// is computed once per parameter, on the first match, and must be treated as
// immutable by every borrower.
func (s *SharedWeights) universalEffective(name string, t *tensor.Tensor) *tensor.Tensor {
	if s == nil {
		return nil
	}
	b := s.params[name]
	if b == nil || len(t.Data) != b.W.Len() {
		return nil
	}
	for i, w := range b.W.Data {
		if b.Mask != nil {
			w *= b.Mask.Data[i]
		}
		if math.Float64bits(t.Data[i]) != math.Float64bits(w) {
			return nil
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.eff[name]
	if u == nil {
		u = OwnParams{}.Effective(b)
		s.eff[name] = u
	}
	return u
}
