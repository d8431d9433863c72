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

	rows rowLinear // training state (see workspace.go)
}

// NewTokenLinear constructs the layer with He initialization.
func NewTokenLinear(name string, rng *rand.Rand, in, out int, prunable bool) *TokenLinear {
	w, b := newRowParams(name, rng, in, out, prunable)
	return &TokenLinear{In: in, Out: out, Weight: w, Bias: b}
}

// Forward implements Layer. The [N,T,*] tensors are [N*T, *] matrices in
// memory.
func (l *TokenLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != l.In {
		panic(fmt.Sprintf("nn: TokenLinear expects [N,T,%d], got %v", l.In, x.Shape))
	}
	return l.rows.forward(l.Weight, l.Bias, x.Data, train, x.Shape[0], x.Shape[1], l.Out)
}

// Backward implements Layer.
func (l *TokenLinear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return l.rows.backward(l.Weight, l.Bias, dy, l.rows.dx.take(dy.Shape[0], dy.Shape[1], l.In), 0)
}

func (l *TokenLinear) trainingStateBytes() int64 { return l.rows.trainingStateBytes() }

func (l *TokenLinear) releaseTrainingState() { l.rows = rowLinear{} }

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
	var xhat, invStd []float64
	if train {
		ln.xhat = grow(ln.xhat, rows*ln.D)
		ln.invStd = grow(ln.invStd, rows)
		xhat, invStd = ln.xhat, ln.invStd
	}
	LayerNormInto(x.Data, y.Data, ln.Gamma.W.Data, ln.Beta.W.Data, ln.Eps, xhat, invStd)
	return y
}

// LayerNormInto normalizes each row of x (rows of d = len(gamma) elements)
// to zero mean and unit variance, then scales by gamma and shifts by beta,
// into y. xhat and invStd, when non-nil, receive the normalized activations
// and each row's 1/σ, which Backward reads back. Every element of y is
// written.
func LayerNormInto(x, y, gamma, beta []float64, eps float64, xhat, invStd []float64) {
	d := len(gamma)
	fd := float64(d)
	for r := 0; r < len(x)/d; r++ {
		seg := x[r*d : (r+1)*d]
		mean := 0.0
		for _, v := range seg {
			mean += v
		}
		mean /= fd
		variance := 0.0
		for _, v := range seg {
			variance += (v - mean) * (v - mean)
		}
		variance /= fd
		inv := 1.0 / math.Sqrt(variance+eps)
		out := y[r*d : (r+1)*d]
		if xhat == nil {
			for i, v := range seg {
				out[i] = gamma[i]*((v-mean)*inv) + beta[i]
			}
			continue
		}
		xh := xhat[r*d : (r+1)*d]
		for i, v := range seg {
			xh[i] = (v - mean) * inv
			out[i] = gamma[i]*xh[i] + beta[i]
		}
		invStd[r] = inv
	}
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

	// Training state (see workspace.go): the four projections in Params
	// order — Q, K and V are their outputs, and the output projection's
	// input is the pre-projection Z — the softmax rows Backward reads back,
	// and Backward's scratch: dQ, dK, dV (dX accumulates in the Q
	// projection's input gradient) and one attention row's dA.
	proj       [4]rowLinear
	z          buffer    // [N,T,D]
	attn       []float64 // per (batch, head): T×T softmax rows
	dq, dk, dv buffer    // [N,T,D]
	da         []float64
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

// Forward implements Layer.
func (m *MultiHeadAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != m.D {
		panic(fmt.Sprintf("nn: MultiHeadAttention expects [N,T,%d], got %v", m.D, x.Shape))
	}
	n, t := x.Shape[0], x.Shape[1]
	q := m.proj[0].forward(m.Wq, nil, x.Data, train, n, t, m.D)
	k := m.proj[1].forward(m.Wk, nil, x.Data, train, n, t, m.D)
	v := m.proj[2].forward(m.Wv, nil, x.Data, train, n, t, m.D)
	var z *tensor.Tensor
	var attn []float64
	if train {
		z = m.z.zeroed(n, t, m.D) // AttentionInto accumulates
		m.attn = grow(m.attn, n*m.Heads*t*t)
		attn = m.attn
	} else {
		z = tensor.New(n, t, m.D)
		attn = make([]float64, n*m.Heads*t*t)
	}
	AttentionInto(q.Data, k.Data, v.Data, z.Data, attn, n, t, m.D, m.Heads)
	return m.proj[3].forward(m.Wo, nil, z.Data, train, n, t, m.D)
}

// AttentionInto is scaled-dot-product attention's per-head core over n
// samples of t tokens each. q, k, v and z are [N·T, d] token-major, each
// head owning d/heads adjacent columns; attn holds N·heads·T·T elements. For
// every sample, head and query token i it writes the softmax over j of
// q_i·k_j/√(d/heads) into attn's row (sample, head, i) and accumulates that
// row's weighted sum of the v_j into z_i, so z must arrive zeroed. Every
// element of attn is written.
func AttentionInto(q, k, v, z, attn []float64, n, t, d, heads int) {
	dh := d / heads
	scale := 1.0 / math.Sqrt(float64(dh))

	for b := 0; b < n; b++ {
		for h := 0; h < heads; h++ {
			off := h * dh
			aBase := (b*heads + h) * t * t
			// S[i][j] = q_i · k_j * scale; softmax rows → A; Z = A·V.
			for i := 0; i < t; i++ {
				qi := q[(b*t+i)*d+off : (b*t+i)*d+off+dh]
				row := attn[aBase+i*t : aBase+(i+1)*t]
				maxv := math.Inf(-1)
				for j := 0; j < t; j++ {
					kj := k[(b*t+j)*d+off : (b*t+j)*d+off+dh]
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
				zi := z[(b*t+i)*d+off : (b*t+i)*d+off+dh]
				for j := range row {
					row[j] /= sum
					vj := v[(b*t+j)*d+off : (b*t+j)*d+off+dh]
					for l := range zi {
						zi[l] += row[j] * vj[l]
					}
				}
			}
		}
	}
}

// Backward implements Layer.
func (m *MultiHeadAttention) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, t := dy.Shape[0], dy.Shape[1]
	dh := m.D / m.Heads
	scale := 1.0 / math.Sqrt(float64(dh))
	q, k, v, attn := &m.proj[0].out.t, &m.proj[1].out.t, &m.proj[2].out.t, m.attn

	// Through the output projection: dWo = dyᵀ·z; dz = dy·Wo.
	dz := m.proj[3].backward(m.Wo, nil, dy, m.proj[3].dx.take(n, t, m.D), 0)

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
	// last's. The four projections are D×D: they share the output
	// projection's dW scratch.
	dx := m.proj[0].dx.zeroed(n, t, m.D)
	grads := [...]*tensor.Tensor{dq, dk, dv}
	for i, p := range [...]*Param{m.Wq, m.Wk, m.Wv} {
		m.proj[i].dw = m.proj[3].dw
		m.proj[i].backward(p, nil, grads[i], dx, 1)
	}
	return dx
}

func (m *MultiHeadAttention) trainingStateBytes() int64 {
	n := sliceBytes(m.attn, m.da) + bufferBytes(&m.z, &m.dq, &m.dk, &m.dv)
	for i := range m.proj {
		n += m.proj[i].trainingStateBytes()
	}
	return n - 3*sliceBytes(m.proj[3].dw) // the shared dW, counted once
}

func (m *MultiHeadAttention) releaseTrainingState() {
	m.proj, m.z, m.attn, m.da = [4]rowLinear{}, buffer{}, nil, nil
	m.dq, m.dk, m.dv = buffer{}, buffer{}, buffer{}
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

	// LastTokens records T, the patch count per image, from the most recent
	// training pass (used by FLOPs accounting).
	LastTokens int

	// Training state (see workspace.go): the projection over the
	// [N*T, C*P*P] patches, the patches themselves, the input shape
	// Backward scatters back to, and its input gradient.
	rows        rowLinear
	patches, dx buffer
	inShape     []int
}

// NewPatchEmbed constructs the embedding.
func NewPatchEmbed(name string, rng *rand.Rand, c, p, d int) *PatchEmbed {
	w, b := newRowParams(name, rng, c*p*p, d, true)
	return &PatchEmbed{C: c, P: p, D: d, Weight: w, Bias: b}
}

// tokens returns the patch count for an H×W image.
func (pe *PatchEmbed) tokens(h, w int) int { return (h / pe.P) * (w / pe.P) }

// ExtractPatches gathers patch vectors: row (b, ty, tx) is the flattened
// [C,P,P] patch.
func (pe *PatchEmbed) ExtractPatches(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	return ExtractPatchesInto(x, tensor.New(n*(h/pe.P)*(w/pe.P), c*pe.P*pe.P), pe.P)
}

// ExtractPatchesInto is ExtractPatches for p×p patches writing into out,
// which must have shape [N*T, C*p*p]. Every element of out is written, so it
// may be an uninitialized scratch buffer. Returns out.
func ExtractPatchesInto(x, out *tensor.Tensor, p int) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	ty, tx := h/p, w/p
	in := c * p * p
	if len(out.Shape) != 2 || out.Shape[0] != n*ty*tx || out.Shape[1] != in {
		panic(fmt.Sprintf("nn: ExtractPatchesInto out %v, want [%d %d]", out.Shape, n*ty*tx, in))
	}
	for b := 0; b < n; b++ {
		for py := 0; py < ty; py++ {
			for px := 0; px < tx; px++ {
				row := out.Data[((b*ty+py)*tx+px)*in : ((b*ty+py)*tx+px+1)*in]
				idx := 0
				for ch := 0; ch < c; ch++ {
					for yy := 0; yy < p; yy++ {
						src := x.Data[((b*c+ch)*h+py*p+yy)*w+px*p : ((b*c+ch)*h+py*p+yy)*w+px*p+p]
						copy(row[idx:idx+p], src)
						idx += p
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
	if train {
		pe.LastTokens = t
		pe.inShape = append(pe.inShape[:0], x.Shape...)
	}
	patches := ExtractPatchesInto(x, pe.patches.result(train, n*t, pe.C*pe.P*pe.P), pe.P)
	return pe.rows.forward(pe.Weight, pe.Bias, patches.Data, train, n, t, pe.D)
}

// Backward implements Layer.
func (pe *PatchEmbed) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, t := dy.Shape[0], dy.Shape[1]
	in := pe.C * pe.P * pe.P
	dpatches := pe.rows.backward(pe.Weight, pe.Bias, dy, pe.rows.dx.take(n*t, in), 0).Data
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
	return pe.rows.trainingStateBytes() + bufferBytes(&pe.patches, &pe.dx)
}

func (pe *PatchEmbed) releaseTrainingState() {
	pe.rows, pe.patches, pe.dx = rowLinear{}, buffer{}, buffer{}
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
		y = mp.out.zeroed(n, d) // MeanPoolTokensInto accumulates
	} else {
		y = tensor.New(n, d)
	}
	MeanPoolTokensInto(x.Data, y.Data, n, t, d)
	return y
}

// MeanPoolTokensInto accumulates the mean of each sample's t token rows of x
// ([N, T, D]) into y ([N, D]), so y must arrive zeroed.
func MeanPoolTokensInto(x, y []float64, n, t, d int) {
	inv := 1.0 / float64(t)
	for b := 0; b < n; b++ {
		for tt := 0; tt < t; tt++ {
			for j := 0; j < d; j++ {
				y[b*d+j] += x[(b*t+tt)*d+j] * inv
			}
		}
	}
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
