package nn

// Transformer building blocks — the paper's stated future work ("we plan to
// extend these results to transformer-based architectures"). All projection
// weights are ordinary prunable matrices (rows = output features, cols =
// reduction), so CRISP's hybrid N:M + block pruning applies unchanged.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// TokenLinear applies a fully connected layer over the last dimension of a
// [N, T, D] token tensor.
type TokenLinear struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	// LastTokens records T from the most recent forward pass (used by
	// FLOPs accounting).
	LastTokens int

	// Training state (see workspace.go).
	x             *tensor.Tensor // the [N,T,In] input Backward reads back
	weff, out, dx buffer
	dw            []float64
}

// NewTokenLinear constructs the layer with He initialization.
func NewTokenLinear(name string, rng *rand.Rand, in, out int, prunable bool) *TokenLinear {
	std := math.Sqrt(2.0 / float64(in))
	l := &TokenLinear{
		In:     in,
		Out:    out,
		Weight: newParam(name+".weight", tensor.Randn(rng, std, out, in), out, in, prunable),
		Bias:   newParam(name+".bias", tensor.New(out), out, 1, false),
	}
	l.Bias.NoDecay = true
	return l
}

// Forward implements Layer.
func (l *TokenLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != l.In {
		panic(fmt.Sprintf("nn: TokenLinear expects [N,T,%d], got %v", l.In, x.Shape))
	}
	n, t := x.Shape[0], x.Shape[1]
	l.LastTokens = t
	weff, y := l.weff.masked(train, l.Weight), l.out.result(train, n, t, l.Out)
	if train {
		l.x = x
	}
	// The [N,T,*] tensors are [N*T, *] matrices in memory.
	tensor.Gemm(false, true, n*t, l.Out, l.In, 1, x.Data, weff.Data, 0, y.Data)
	for r := 0; r < n*t; r++ {
		row := y.Data[r*l.Out : (r+1)*l.Out]
		for j := range row {
			row[j] += l.Bias.W.Data[j]
		}
	}
	return y
}

// Backward implements Layer.
func (l *TokenLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, t := dy.Shape[0], dy.Shape[1]
	l.dw = grow(l.dw, l.Out*l.In)
	tensor.Gemm(true, false, l.Out, l.In, n*t, 1, dy.Data, l.x.Data, 0, l.dw)
	accumulate(l.Weight.Grad.Data, l.dw)
	for r := 0; r < n*t; r++ {
		for j := 0; j < l.Out; j++ {
			l.Bias.Grad.Data[j] += dy.Data[r*l.Out+j]
		}
	}
	dx := l.dx.take(n, t, l.In)
	tensor.Gemm(false, false, n*t, l.In, l.Out, 1, dy.Data, l.weff.t.Data, 0, dx.Data)
	return dx
}

func (l *TokenLinear) trainingStateBytes() int64 {
	return tensorBytes(l.x) + bufferBytes(&l.weff, &l.out, &l.dx) + sliceBytes(l.dw)
}

func (l *TokenLinear) releaseTrainingState() {
	l.x, l.weff, l.out, l.dx, l.dw = nil, buffer{}, buffer{}, buffer{}, nil
}

// Params implements Layer.
func (l *TokenLinear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// LayerNorm normalizes the last dimension of [N, T, D] tokens with
// learnable gain and shift.
type LayerNorm struct {
	D   int
	Eps float64

	Gamma, Beta *Param

	// Training state (see workspace.go): normalized activations and the
	// per-row 1/σ, written by a training Forward, read by Backward, and what
	// the two passes return.
	xhat, invStd []float64
	out, dx      buffer
}

// NewLayerNorm constructs the layer with gamma=1, beta=0.
func NewLayerNorm(name string, d int) *LayerNorm {
	ln := &LayerNorm{
		D:     d,
		Eps:   1e-5,
		Gamma: newParam(name+".gamma", tensor.Full(1, d), d, 1, false),
		Beta:  newParam(name+".beta", tensor.New(d), d, 1, false),
	}
	ln.Gamma.NoDecay = true
	ln.Beta.NoDecay = true
	return ln
}

// Forward implements Layer.
func (ln *LayerNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != ln.D {
		panic(fmt.Sprintf("nn: LayerNorm expects [N,T,%d], got %v", ln.D, x.Shape))
	}
	rows := x.Shape[0] * x.Shape[1]
	y := ln.out.result(train, x.Shape...)
	if train {
		ln.xhat = grow(ln.xhat, rows*ln.D)
		ln.invStd = grow(ln.invStd, rows)
	}
	d := float64(ln.D)
	for r := 0; r < rows; r++ {
		seg := x.Data[r*ln.D : (r+1)*ln.D]
		mean := 0.0
		for _, v := range seg {
			mean += v
		}
		mean /= d
		variance := 0.0
		for _, v := range seg {
			variance += (v - mean) * (v - mean)
		}
		variance /= d
		inv := 1.0 / math.Sqrt(variance+ln.Eps)
		out := y.Data[r*ln.D : (r+1)*ln.D]
		for i, v := range seg {
			xh := (v - mean) * inv
			out[i] = ln.Gamma.W.Data[i]*xh + ln.Beta.W.Data[i]
			if train {
				ln.xhat[r*ln.D+i] = xh
			}
		}
		if train {
			ln.invStd[r] = inv
		}
	}
	return y
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(dy *tensor.Tensor) *tensor.Tensor {
	rows := dy.Shape[0] * dy.Shape[1]
	dx := ln.dx.take(dy.Shape...)
	d := float64(ln.D)
	for r := 0; r < rows; r++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for i := 0; i < ln.D; i++ {
			g := dy.Data[r*ln.D+i] * ln.Gamma.W.Data[i]
			xh := ln.xhat[r*ln.D+i]
			sumDy += g
			sumDyXhat += g * xh
			ln.Gamma.Grad.Data[i] += dy.Data[r*ln.D+i] * xh
			ln.Beta.Grad.Data[i] += dy.Data[r*ln.D+i]
		}
		inv := ln.invStd[r]
		for i := 0; i < ln.D; i++ {
			g := dy.Data[r*ln.D+i] * ln.Gamma.W.Data[i]
			xh := ln.xhat[r*ln.D+i]
			dx.Data[r*ln.D+i] = inv / d * (d*g - sumDy - xh*sumDyXhat)
		}
	}
	return dx
}

func (ln *LayerNorm) trainingStateBytes() int64 {
	return sliceBytes(ln.xhat, ln.invStd) + bufferBytes(&ln.out, &ln.dx)
}

func (ln *LayerNorm) releaseTrainingState() {
	ln.xhat, ln.invStd, ln.out, ln.dx = nil, nil, buffer{}, buffer{}
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// MultiHeadAttention is standard scaled-dot-product self-attention over
// [N, T, D] tokens with H heads. The four projections are prunable D×D
// matrices.
type MultiHeadAttention struct {
	D, Heads       int
	Wq, Wk, Wv, Wo *Param

	// LastTokens records T from the most recent forward pass.
	LastTokens int

	// Training state (see workspace.go): what Backward reads back from
	// Forward — the input, Q, K, V, the softmax rows, the pre-output-
	// projection Z and the four masked projections in Params order — then
	// what the two passes return and Backward's scratch.
	x              *tensor.Tensor // [N,T,D]
	q, k, v, z     buffer         // [N,T,D]
	attn           []float64      // per (batch, head): T×T softmax rows
	weff           [4]buffer      // Wq, Wk, Wv, Wo ⊙ their masks
	out, dx        buffer         // [N,T,D]
	dz, dq, dk, dv buffer         // [N,T,D]
	dw, da         []float64      // one projection's dW; one attention row's dA
}

// NewMultiHeadAttention constructs the layer; heads must divide d.
func NewMultiHeadAttention(name string, rng *rand.Rand, d, heads int) *MultiHeadAttention {
	if heads <= 0 || d%heads != 0 {
		panic(fmt.Sprintf("nn: %d heads must divide model dim %d", heads, d))
	}
	std := math.Sqrt(1.0 / float64(d))
	mk := func(suffix string) *Param {
		return newParam(name+"."+suffix, tensor.Randn(rng, std, d, d), d, d, true)
	}
	return &MultiHeadAttention{D: d, Heads: heads, Wq: mk("wq"), Wk: mk("wk"), Wv: mk("wv"), Wo: mk("wo")}
}

// project writes x·Wᵀ over the tokens of x into out, both [N,T,D], for the
// masked projection weff, and returns out.
func (m *MultiHeadAttention) project(x, weff, out *tensor.Tensor) *tensor.Tensor {
	rows := x.Shape[0] * x.Shape[1]
	tensor.Gemm(false, true, rows, m.D, m.D, 1, x.Data, weff.Data, 0, out.Data)
	return out
}

// Forward implements Layer.
func (m *MultiHeadAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != m.D {
		panic(fmt.Sprintf("nn: MultiHeadAttention expects [N,T,%d], got %v", m.D, x.Shape))
	}
	n, t := x.Shape[0], x.Shape[1]
	m.LastTokens = t
	dh := m.D / m.Heads
	scale := 1.0 / math.Sqrt(float64(dh))

	q := m.project(x, m.weff[0].masked(train, m.Wq), m.q.result(train, n, t, m.D))
	k := m.project(x, m.weff[1].masked(train, m.Wk), m.k.result(train, n, t, m.D))
	v := m.project(x, m.weff[2].masked(train, m.Wv), m.v.result(train, n, t, m.D))
	var z *tensor.Tensor
	var attn []float64
	if train {
		z = m.z.zeroed(n, t, m.D) // accumulated below
		m.attn = grow(m.attn, n*m.Heads*t*t)
		attn, m.x = m.attn, x
	} else {
		z = tensor.New(n, t, m.D)
		attn = make([]float64, n*m.Heads*t*t)
	}

	for b := 0; b < n; b++ {
		for h := 0; h < m.Heads; h++ {
			off := h * dh
			aBase := (b*m.Heads + h) * t * t
			// S[i][j] = q_i · k_j * scale; softmax rows → A; Z = A·V.
			for i := 0; i < t; i++ {
				qi := q.Data[(b*t+i)*m.D+off : (b*t+i)*m.D+off+dh]
				row := attn[aBase+i*t : aBase+(i+1)*t]
				maxv := math.Inf(-1)
				for j := 0; j < t; j++ {
					kj := k.Data[(b*t+j)*m.D+off : (b*t+j)*m.D+off+dh]
					s := 0.0
					for l, qv := range qi {
						s += qv * kj[l]
					}
					row[j] = s * scale
					if row[j] > maxv {
						maxv = row[j]
					}
				}
				sum := 0.0
				for j := range row {
					row[j] = math.Exp(row[j] - maxv)
					sum += row[j]
				}
				zi := z.Data[(b*t+i)*m.D+off : (b*t+i)*m.D+off+dh]
				for j := range row {
					row[j] /= sum
					vj := v.Data[(b*t+j)*m.D+off : (b*t+j)*m.D+off+dh]
					for l := range zi {
						zi[l] += row[j] * vj[l]
					}
				}
			}
		}
	}
	return m.project(z, m.weff[3].masked(train, m.Wo), m.out.result(train, n, t, m.D))
}

// Backward implements Layer.
func (m *MultiHeadAttention) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, t := dy.Shape[0], dy.Shape[1]
	dh := m.D / m.Heads
	scale := 1.0 / math.Sqrt(float64(dh))
	q, k, v, attn := &m.q.t, &m.k.t, &m.v.t, m.attn

	// Through the output projection: dz = dy·Wo; dWo = dyᵀ·z.
	dz := m.dz.take(n, t, m.D)
	tensor.Gemm(false, false, n*t, m.D, m.D, 1, dy.Data, m.weff[3].t.Data, 0, dz.Data)
	m.dw = grow(m.dw, m.D*m.D)
	tensor.Gemm(true, false, m.D, m.D, n*t, 1, dy.Data, m.z.t.Data, 0, m.dw)
	accumulate(m.Wo.Grad.Data, m.dw)

	// dQ, dK and dV are accumulated below.
	dq, dk, dv := m.dq.zeroed(n, t, m.D), m.dk.zeroed(n, t, m.D), m.dv.zeroed(n, t, m.D)
	m.da = grow(m.da, t)
	da := m.da
	for b := 0; b < n; b++ {
		for h := 0; h < m.Heads; h++ {
			off := h * dh
			aBase := (b*m.Heads + h) * t * t
			for i := 0; i < t; i++ {
				dzi := dz.Data[(b*t+i)*m.D+off : (b*t+i)*m.D+off+dh]
				row := attn[aBase+i*t : aBase+(i+1)*t]
				// dA[j] = dz_i · v_j ; dV_j += A[j]·dz_i.
				dot := 0.0
				for j := 0; j < t; j++ {
					vj := v.Data[(b*t+j)*m.D+off : (b*t+j)*m.D+off+dh]
					dvj := dv.Data[(b*t+j)*m.D+off : (b*t+j)*m.D+off+dh]
					s := 0.0
					for l := range dzi {
						s += dzi[l] * vj[l]
						dvj[l] += row[j] * dzi[l]
					}
					da[j] = s
					dot += s * row[j]
				}
				// Softmax backward: dS[j] = A[j]·(dA[j] − Σ A·dA), then the
				// 1/√dh scale.
				qi := q.Data[(b*t+i)*m.D+off : (b*t+i)*m.D+off+dh]
				dqi := dq.Data[(b*t+i)*m.D+off : (b*t+i)*m.D+off+dh]
				for j := 0; j < t; j++ {
					ds := row[j] * (da[j] - dot) * scale
					kj := k.Data[(b*t+j)*m.D+off : (b*t+j)*m.D+off+dh]
					dkj := dk.Data[(b*t+j)*m.D+off : (b*t+j)*m.D+off+dh]
					for l := range dqi {
						dqi[l] += ds * kj[l]
						dkj[l] += ds * qi[l]
					}
				}
			}
		}
	}

	// Through the Q/K/V projections, each one's dX accumulated onto the
	// last's.
	dx := m.dx.zeroed(n, t, m.D)
	grads := [...]*tensor.Tensor{dq, dk, dv}
	for i, p := range [...]*Param{m.Wq, m.Wk, m.Wv} {
		tensor.Gemm(true, false, m.D, m.D, n*t, 1, grads[i].Data, m.x.Data, 0, m.dw)
		accumulate(p.Grad.Data, m.dw)
		tensor.Gemm(false, false, n*t, m.D, m.D, 1, grads[i].Data, m.weff[i].t.Data, 1, dx.Data)
	}
	return dx
}

func (m *MultiHeadAttention) trainingStateBytes() int64 {
	return tensorBytes(m.x) + sliceBytes(m.attn, m.dw, m.da) +
		bufferBytes(&m.q, &m.k, &m.v, &m.z, &m.weff[0], &m.weff[1], &m.weff[2], &m.weff[3],
			&m.out, &m.dx, &m.dz, &m.dq, &m.dk, &m.dv)
}

func (m *MultiHeadAttention) releaseTrainingState() {
	m.x, m.attn, m.dw, m.da = nil, nil, nil, nil
	m.q, m.k, m.v, m.z, m.weff = buffer{}, buffer{}, buffer{}, buffer{}, [4]buffer{}
	m.out, m.dx, m.dz, m.dq, m.dk, m.dv = buffer{}, buffer{}, buffer{}, buffer{}, buffer{}, buffer{}
}

// Params implements Layer.
func (m *MultiHeadAttention) Params() []*Param {
	return []*Param{m.Wq, m.Wk, m.Wv, m.Wo}
}

// PatchEmbed splits [N, C, H, W] images into P×P patches and projects each
// to a D-dimensional token, producing [N, (H/P)·(W/P), D]. H and W must be
// multiples of P.
type PatchEmbed struct {
	C, P, D int
	Weight  *Param
	Bias    *Param

	// LastTokens records T from the most recent forward pass.
	LastTokens int

	// Training state (see workspace.go): the [N*T, C*P*P] patches and the
	// masked weight Backward reads back, what the two passes return, and
	// Backward's scratch.
	patches, weff, out, dx buffer
	dw, dpatches           []float64
	inShape                []int
}

// NewPatchEmbed constructs the embedding.
func NewPatchEmbed(name string, rng *rand.Rand, c, p, d int) *PatchEmbed {
	in := c * p * p
	std := math.Sqrt(2.0 / float64(in))
	pe := &PatchEmbed{
		C: c, P: p, D: d,
		Weight: newParam(name+".weight", tensor.Randn(rng, std, d, in), d, in, true),
		Bias:   newParam(name+".bias", tensor.New(d), d, 1, false),
	}
	pe.Bias.NoDecay = true
	return pe
}

// tokens returns the patch count for an H×W image.
func (pe *PatchEmbed) tokens(h, w int) int { return (h / pe.P) * (w / pe.P) }

// ExtractPatches gathers patch vectors: row (b, ty, tx) is the flattened
// [C,P,P] patch. Exposed for the sparse inference engine.
func (pe *PatchEmbed) ExtractPatches(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	return pe.ExtractPatchesInto(x, tensor.New(n*(h/pe.P)*(w/pe.P), c*pe.P*pe.P))
}

// ExtractPatchesInto is ExtractPatches writing into out, which must have
// shape [N*T, C*P*P]. Every element of out is written, so it may be an
// uninitialized scratch buffer. Returns out.
func (pe *PatchEmbed) ExtractPatchesInto(x, out *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	ty, tx := h/pe.P, w/pe.P
	in := c * pe.P * pe.P
	if len(out.Shape) != 2 || out.Shape[0] != n*ty*tx || out.Shape[1] != in {
		panic(fmt.Sprintf("nn: ExtractPatchesInto out %v, want [%d %d]", out.Shape, n*ty*tx, in))
	}
	for b := 0; b < n; b++ {
		for py := 0; py < ty; py++ {
			for px := 0; px < tx; px++ {
				row := out.Data[((b*ty+py)*tx+px)*in : ((b*ty+py)*tx+px+1)*in]
				idx := 0
				for ch := 0; ch < c; ch++ {
					for yy := 0; yy < pe.P; yy++ {
						src := x.Data[((b*c+ch)*h+py*pe.P+yy)*w+px*pe.P : ((b*c+ch)*h+py*pe.P+yy)*w+px*pe.P+pe.P]
						copy(row[idx:idx+pe.P], src)
						idx += pe.P
					}
				}
			}
		}
	}
	return out
}

// Forward implements Layer.
func (pe *PatchEmbed) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != pe.C {
		panic(fmt.Sprintf("nn: PatchEmbed expects [N,%d,H,W], got %v", pe.C, x.Shape))
	}
	if x.Shape[2]%pe.P != 0 || x.Shape[3]%pe.P != 0 {
		panic(fmt.Sprintf("nn: PatchEmbed size %d does not divide input %v", pe.P, x.Shape))
	}
	n := x.Shape[0]
	t := pe.tokens(x.Shape[2], x.Shape[3])
	pe.LastTokens = t
	in := pe.C * pe.P * pe.P
	if train {
		pe.inShape = append(pe.inShape[:0], x.Shape...)
	}
	patches := pe.ExtractPatchesInto(x, pe.patches.result(train, n*t, in))
	weff, y := pe.weff.masked(train, pe.Weight), pe.out.result(train, n, t, pe.D)
	tensor.Gemm(false, true, n*t, pe.D, in, 1, patches.Data, weff.Data, 0, y.Data)
	for r := 0; r < n*t; r++ {
		for j := 0; j < pe.D; j++ {
			y.Data[r*pe.D+j] += pe.Bias.W.Data[j]
		}
	}
	return y
}

// Backward implements Layer.
func (pe *PatchEmbed) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, t := dy.Shape[0], dy.Shape[1]
	in := pe.C * pe.P * pe.P
	pe.dw = grow(pe.dw, pe.D*in)
	tensor.Gemm(true, false, pe.D, in, n*t, 1, dy.Data, pe.patches.t.Data, 0, pe.dw)
	accumulate(pe.Weight.Grad.Data, pe.dw)
	for r := 0; r < n*t; r++ {
		for j := 0; j < pe.D; j++ {
			pe.Bias.Grad.Data[j] += dy.Data[r*pe.D+j]
		}
	}
	pe.dpatches = grow(pe.dpatches, n*t*in)
	dpatches := pe.dpatches
	tensor.Gemm(false, false, n*t, in, pe.D, 1, dy.Data, pe.weff.t.Data, 0, dpatches)
	// Scatter patch gradients back to image layout. The patches tile the
	// image (Forward checks P divides H and W), so every element of dx is
	// written.
	c, h, w := pe.inShape[1], pe.inShape[2], pe.inShape[3]
	ty, tx := h/pe.P, w/pe.P
	dx := pe.dx.take(pe.inShape...)
	for b := 0; b < n; b++ {
		for py := 0; py < ty; py++ {
			for px := 0; px < tx; px++ {
				row := dpatches[((b*ty+py)*tx+px)*in : ((b*ty+py)*tx+px+1)*in]
				idx := 0
				for ch := 0; ch < c; ch++ {
					for yy := 0; yy < pe.P; yy++ {
						dst := dx.Data[((b*c+ch)*h+py*pe.P+yy)*w+px*pe.P : ((b*c+ch)*h+py*pe.P+yy)*w+px*pe.P+pe.P]
						copy(dst, row[idx:idx+pe.P])
						idx += pe.P
					}
				}
			}
		}
	}
	return dx
}

func (pe *PatchEmbed) trainingStateBytes() int64 {
	return bufferBytes(&pe.patches, &pe.weff, &pe.out, &pe.dx) + sliceBytes(pe.dw, pe.dpatches)
}

func (pe *PatchEmbed) releaseTrainingState() {
	pe.patches, pe.weff, pe.out, pe.dx = buffer{}, buffer{}, buffer{}, buffer{}
	pe.dw, pe.dpatches = nil, nil
}

// Params implements Layer.
func (pe *PatchEmbed) Params() []*Param { return []*Param{pe.Weight, pe.Bias} }

// MeanPoolTokens averages [N, T, D] tokens to [N, D] for the classifier.
type MeanPoolTokens struct {
	// Training state (see workspace.go): the token count Backward spreads
	// the gradient over, and what the two passes return.
	t       int
	out, dx buffer
}

// Forward implements Layer.
func (mp *MeanPoolTokens) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("nn: MeanPoolTokens expects [N,T,D], got %v", x.Shape))
	}
	n, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	var y *tensor.Tensor
	if train {
		mp.t = t
		y = mp.out.zeroed(n, d) // accumulated below
	} else {
		y = tensor.New(n, d)
	}
	inv := 1.0 / float64(t)
	for b := 0; b < n; b++ {
		for tt := 0; tt < t; tt++ {
			for j := 0; j < d; j++ {
				y.Data[b*d+j] += x.Data[(b*t+tt)*d+j] * inv
			}
		}
	}
	return y
}

// Backward implements Layer.
func (mp *MeanPoolTokens) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, d := dy.Shape[0], dy.Shape[1]
	dx := mp.dx.take(n, mp.t, d)
	inv := 1.0 / float64(mp.t)
	for b := 0; b < n; b++ {
		for tt := 0; tt < mp.t; tt++ {
			for j := 0; j < d; j++ {
				dx.Data[(b*mp.t+tt)*d+j] = dy.Data[b*d+j] * inv
			}
		}
	}
	return dx
}

func (mp *MeanPoolTokens) trainingStateBytes() int64 { return bufferBytes(&mp.out, &mp.dx) }

func (mp *MeanPoolTokens) releaseTrainingState() { mp.out, mp.dx = buffer{}, buffer{} }

// Params implements Layer.
func (mp *MeanPoolTokens) Params() []*Param { return nil }
