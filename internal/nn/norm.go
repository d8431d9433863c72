package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm2D normalizes each channel over (N, H, W) with learnable scale
// gamma and shift beta, tracking running statistics for evaluation.
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64 // running-stat update rate (paper setup uses 0.9 decay)

	Gamma, Beta *Param
	RunMean     *tensor.Tensor
	RunVar      *tensor.Tensor

	// Training state (see workspace.go): normalized activations and the
	// per-channel 1/σ, written by a training Forward, read by Backward, and
	// what the two passes return.
	xhat, invStd []float64
	inShape      []int
	out, dx      buffer
}

// NewBatchNorm2D builds a batch-norm layer with gamma=1, beta=0.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C:        c,
		Eps:      1e-5,
		Momentum: 0.1,
		Gamma:    newParam(name+".gamma", tensor.Full(1, c), c, 1, false),
		Beta:     newParam(name+".beta", tensor.New(c), c, 1, false),
		RunMean:  tensor.New(c),
		RunVar:   tensor.Full(1, c),
	}
	bn.Gamma.NoDecay = true
	bn.Beta.NoDecay = true
	return bn
}

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D expects [N,%d,H,W], got %v", bn.C, x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cnt := float64(n * h * w)

	if train {
		y := bn.out.take(x.Shape...)
		bn.inShape = append(bn.inShape[:0], x.Shape...)
		bn.xhat = grow(bn.xhat, len(x.Data))
		bn.invStd = grow(bn.invStd, c)
		for ch := 0; ch < c; ch++ {
			mean, sq := 0.0, 0.0
			for b := 0; b < n; b++ {
				for _, v := range x.Data[(b*c+ch)*h*w : (b*c+ch+1)*h*w] {
					mean += v
					sq += v * v
				}
			}
			mean /= cnt
			variance := sq/cnt - mean*mean
			if variance < 0 {
				variance = 0
			}
			inv := 1.0 / math.Sqrt(variance+bn.Eps)
			bn.invStd[ch] = inv
			g, be := bn.Gamma.W.Data[ch], bn.Beta.W.Data[ch]
			for b := 0; b < n; b++ {
				off := (b*c + ch) * h * w
				for i := 0; i < h*w; i++ {
					xh := (x.Data[off+i] - mean) * inv
					bn.xhat[off+i] = xh
					y.Data[off+i] = g*xh + be
				}
			}
			bn.RunMean.Data[ch] = (1-bn.Momentum)*bn.RunMean.Data[ch] + bn.Momentum*mean
			bn.RunVar.Data[ch] = (1-bn.Momentum)*bn.RunVar.Data[ch] + bn.Momentum*variance
		}
		return y
	}

	y := tensor.New(x.Shape...)
	for ch := 0; ch < c; ch++ {
		inv := 1.0 / math.Sqrt(bn.RunVar.Data[ch]+bn.Eps)
		mean := bn.RunMean.Data[ch]
		g, be := bn.Gamma.W.Data[ch], bn.Beta.W.Data[ch]
		for b := 0; b < n; b++ {
			off := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				y.Data[off+i] = g*(x.Data[off+i]-mean)*inv + be
			}
		}
	}
	return y
}

// Backward implements Layer.
func (bn *BatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := bn.inShape[0], bn.inShape[1], bn.inShape[2], bn.inShape[3]
	cnt := float64(n * h * w)
	dx := bn.dx.take(bn.inShape...)
	for ch := 0; ch < c; ch++ {
		sumDy, sumDyXhat := 0.0, 0.0
		for b := 0; b < n; b++ {
			off := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				sumDy += dy.Data[off+i]
				sumDyXhat += dy.Data[off+i] * bn.xhat[off+i]
			}
		}
		bn.Beta.Grad.Data[ch] += sumDy
		bn.Gamma.Grad.Data[ch] += sumDyXhat
		g := bn.Gamma.W.Data[ch]
		inv := bn.invStd[ch]
		for b := 0; b < n; b++ {
			off := (b*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				xh := bn.xhat[off+i]
				dx.Data[off+i] = g * inv / cnt * (cnt*dy.Data[off+i] - sumDy - xh*sumDyXhat)
			}
		}
	}
	return dx
}

func (bn *BatchNorm2D) trainingStateBytes() int64 {
	return sliceBytes(bn.xhat, bn.invStd) + bufferBytes(&bn.out, &bn.dx)
}

func (bn *BatchNorm2D) releaseTrainingState() {
	bn.xhat, bn.invStd, bn.out, bn.dx = nil, nil, buffer{}, buffer{}
}

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }
