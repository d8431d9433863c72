package nn

import "repro/internal/tensor"

// Layer is a differentiable module. Forward consumes an activation tensor
// and produces the next one; Backward consumes dL/dy and returns dL/dx while
// accumulating parameter gradients. A layer caches whatever it needs between
// Forward and Backward, so a Forward/Backward pair must not interleave with
// another Forward on the same layer.
type Layer interface {
	// Forward runs the layer. train selects training behaviour (batch-norm
	// batch statistics, cached activations for backprop).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward backpropagates dy and returns dx.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers; Forward applies them in order, Backward in
// reverse.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	return dy
}

// Params implements Layer.
func (s *Sequential) Params() []*Param { return listParams(s) }

// listParams lists l's parameters in Params order into one slice of
// exactly their number: counted first, then filled. A codec call lists the
// universal model's parameters on every tier transition, so the layer
// types named in countParams and appendParams have their lists inlined
// rather than allocated per layer. Any other layer's own Params is called.
func listParams(l Layer) []*Param {
	return appendParams(make([]*Param, 0, countParams(l)), l)
}

// countParams returns the number of parameters appendParams lists for l.
func countParams(l Layer) int {
	switch v := l.(type) {
	case *Sequential:
		n := 0
		for _, c := range v.Layers {
			n += countParams(c)
		}
		return n
	case *Residual:
		n := countParams(v.Main)
		if v.Shortcut != nil {
			n += countParams(v.Shortcut)
		}
		return n
	case *Conv2D:
		return len(v.Params())
	case *DepthwiseConv2D:
		return len(v.Params())
	case *Linear:
		return len(v.Params())
	case *BatchNorm2D:
		return len(v.Params())
	case *TokenLinear:
		return len(v.Params())
	case *LayerNorm:
		return len(v.Params())
	case *MultiHeadAttention:
		return len(v.Params())
	case *PatchEmbed:
		return len(v.Params())
	}
	return len(l.Params())
}

// appendParams appends l's parameters to ps in Params order: containers
// recurse into the one slice, leaves copy their lists in.
func appendParams(ps []*Param, l Layer) []*Param {
	switch v := l.(type) {
	case *Sequential:
		for _, c := range v.Layers {
			ps = appendParams(ps, c)
		}
		return ps
	case *Residual:
		ps = appendParams(ps, v.Main)
		if v.Shortcut != nil {
			ps = appendParams(ps, v.Shortcut)
		}
		return ps
	case *Conv2D:
		return append(ps, v.Params()...)
	case *DepthwiseConv2D:
		return append(ps, v.Params()...)
	case *Linear:
		return append(ps, v.Params()...)
	case *BatchNorm2D:
		return append(ps, v.Params()...)
	case *TokenLinear:
		return append(ps, v.Params()...)
	case *LayerNorm:
		return append(ps, v.Params()...)
	case *MultiHeadAttention:
		return append(ps, v.Params()...)
	case *PatchEmbed:
		return append(ps, v.Params()...)
	}
	return append(ps, l.Params()...)
}

// Residual computes y = Main(x) + Shortcut(x). A nil Shortcut is the
// identity. The post-addition activation, when any, is a separate layer.
type Residual struct {
	Main     Layer
	Shortcut Layer // nil = identity
}

// NewResidual builds a residual block; shortcut may be nil for identity.
func NewResidual(main, shortcut Layer) *Residual {
	return &Residual{Main: main, Shortcut: shortcut}
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m := r.Main.Forward(x, train)
	var s *tensor.Tensor
	if r.Shortcut != nil {
		s = r.Shortcut.Forward(x, train)
	} else {
		s = x
	}
	return tensor.Add(m, s)
}

// Backward implements Layer.
func (r *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dm := r.Main.Backward(dy)
	var ds *tensor.Tensor
	if r.Shortcut != nil {
		ds = r.Shortcut.Backward(dy)
	} else {
		ds = dy
	}
	return tensor.Add(dm, ds)
}

// Params implements Layer.
func (r *Residual) Params() []*Param { return listParams(r) }

// Flatten reshapes [N, ...] activations to [N, D] for the classifier head.
type Flatten struct {
	inShape []int
}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	return x.Reshape(x.Shape[0], -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return dy.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
