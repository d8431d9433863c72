// Package data provides seeded synthetic classification datasets that stand
// in for ImageNet and CIFAR-100 in this reproduction (the pruning pipeline
// only consumes (sample, label) pairs and their gradients).
//
// Each class is a smooth low-frequency prototype image; samples are the
// prototype under random circular shift ("jitter") plus Gaussian pixel
// noise. Classes are therefore clustered, mutually distinguishable, and
// learnable by small convolutional networks, while class-conditional
// gradients differ enough for class-aware saliency to matter.
package data

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Config describes a synthetic dataset.
type Config struct {
	Name       string
	NumClasses int
	Channels   int
	H, W       int
	// Noise is the standard deviation of additive pixel noise.
	Noise float64
	// Jitter is the maximum circular shift, in pixels, along each axis.
	Jitter int
	// Seed makes the dataset (prototypes and every split) deterministic.
	Seed int64
}

// SynthImageNet stands in for ImageNet: 1000 classes of 16×16 RGB images.
func SynthImageNet() Config {
	return Config{Name: "synth-imagenet", NumClasses: 1000, Channels: 3, H: 16, W: 16, Noise: 0.35, Jitter: 2, Seed: 1}
}

// SynthCIFAR stands in for CIFAR-100: 100 classes of 12×12 RGB images.
func SynthCIFAR() Config {
	return Config{Name: "synth-cifar", NumClasses: 100, Channels: 3, H: 12, W: 12, Noise: 0.3, Jitter: 1, Seed: 2}
}

// Dataset generates samples for a Config. Prototypes are materialized once;
// samples are drawn on demand from split-specific deterministic streams.
type Dataset struct {
	Config
	protos []*tensor.Tensor // one [C,H,W] prototype per class
}

// New builds the dataset, materializing all class prototypes.
func New(cfg Config) *Dataset {
	if cfg.NumClasses <= 0 || cfg.Channels <= 0 || cfg.H <= 0 || cfg.W <= 0 {
		panic(fmt.Sprintf("data: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{Config: cfg, protos: make([]*tensor.Tensor, cfg.NumClasses)}
	for c := range d.protos {
		d.protos[c] = smoothField(rng, cfg.Channels, cfg.H, cfg.W)
	}
	return d
}

// smoothField draws a coarse 4×4 grid per channel and bilinearly upsamples
// it, yielding a low-frequency pattern with unit-scale amplitude.
func smoothField(rng *rand.Rand, c, h, w int) *tensor.Tensor {
	const g = 4
	coarse := make([]float64, c*g*g)
	for i := range coarse {
		coarse[i] = rng.NormFloat64() * 1.5
	}
	out := tensor.New(c, h, w)
	for ch := 0; ch < c; ch++ {
		grid := coarse[ch*g*g : (ch+1)*g*g]
		for y := 0; y < h; y++ {
			fy := float64(y) / float64(h-1) * float64(g-1)
			y0 := int(fy)
			if y0 >= g-1 {
				y0 = g - 2
			}
			ty := fy - float64(y0)
			for x := 0; x < w; x++ {
				fx := float64(x) / float64(w-1) * float64(g-1)
				x0 := int(fx)
				if x0 >= g-1 {
					x0 = g - 2
				}
				tx := fx - float64(x0)
				v00 := grid[y0*g+x0]
				v01 := grid[y0*g+x0+1]
				v10 := grid[(y0+1)*g+x0]
				v11 := grid[(y0+1)*g+x0+1]
				v := v00*(1-ty)*(1-tx) + v01*(1-ty)*tx + v10*ty*(1-tx) + v11*ty*tx
				out.Set(v, ch, y, x)
			}
		}
	}
	return out
}

// Prototype returns the clean prototype of class c (shared storage; callers
// must not mutate it).
func (d *Dataset) Prototype(c int) *tensor.Tensor { return d.protos[c] }

// Split is a materialized set of samples.
type Split struct {
	// X has shape [N, C, H, W].
	X *tensor.Tensor
	// Labels holds the class id of each sample (indices into the full head).
	Labels []int
}

// Len returns the number of samples.
func (s Split) Len() int { return len(s.Labels) }

// Sample returns the b-th image as a [1,C,H,W] view-copy and its label.
func (s Split) Sample(b int) (*tensor.Tensor, int) {
	c, h, w := s.X.Shape[1], s.X.Shape[2], s.X.Shape[3]
	x := tensor.New(1, c, h, w)
	copy(x.Data, s.X.Data[b*c*h*w:(b+1)*c*h*w])
	return x, s.Labels[b]
}

// Subset returns the rows of s whose index appears in idx.
func (s Split) Subset(idx []int) Split {
	c, h, w := s.X.Shape[1], s.X.Shape[2], s.X.Shape[3]
	x := tensor.New(len(idx), c, h, w)
	labels := make([]int, len(idx))
	for i, b := range idx {
		copy(x.Data[i*c*h*w:(i+1)*c*h*w], s.X.Data[b*c*h*w:(b+1)*c*h*w])
		labels[i] = s.Labels[b]
	}
	return Split{X: x, Labels: labels}
}

// gen draws one sample of class c into dst.
func (d *Dataset) gen(rng *rand.Rand, c int, dst []float64) {
	p := d.protos[c]
	ch, h, w := d.Channels, d.H, d.W
	dy, dx := 0, 0
	if d.Jitter > 0 {
		dy = rng.Intn(2*d.Jitter+1) - d.Jitter
		dx = rng.Intn(2*d.Jitter+1) - d.Jitter
	}
	for cc := 0; cc < ch; cc++ {
		for y := 0; y < h; y++ {
			sy := ((y+dy)%h + h) % h
			// The prototype is [C, H, W]; indexed directly because the
			// variadic At allocates its index slice per pixel.
			src := p.Data[(cc*h+sy)*w : (cc*h+sy+1)*w]
			for x := 0; x < w; x++ {
				sx := ((x+dx)%w + w) % w
				dst[(cc*h+y)*w+x] = src[sx] + rng.NormFloat64()*d.Noise
			}
		}
	}
}

// MakeSplit materializes perClass samples for each listed class. The stream
// name ("train", "test", ...) decorrelates splits deterministically.
func (d *Dataset) MakeSplit(stream string, classes []int, perClass int) Split {
	n := len(classes) * perClass
	x := tensor.New(n, d.Channels, d.H, d.W)
	labels := make([]int, n)
	vol := d.Channels * d.H * d.W
	i := 0
	for _, c := range classes {
		if c < 0 || c >= d.NumClasses {
			panic(fmt.Sprintf("data: class %d out of range [0,%d)", c, d.NumClasses))
		}
		// Per (stream, class) RNG keeps splits independent of class order.
		rng := rand.New(rand.NewSource(d.Seed*1_000_003 + int64(c)*31 + int64(HashString(stream))))
		for k := 0; k < perClass; k++ {
			d.gen(rng, c, x.Data[i*vol:(i+1)*vol])
			labels[i] = c
			i++
		}
	}
	return Split{X: x, Labels: labels}
}

// UserClasses deterministically samples k distinct "user-preferred" classes.
func (d *Dataset) UserClasses(seed int64, k int) []int {
	if k > d.NumClasses {
		panic(fmt.Sprintf("data: requested %d classes from %d", k, d.NumClasses))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(d.NumClasses)
	out := append([]int(nil), perm[:k]...)
	return out
}

// HashString is a small FNV-1a over s, used to derive deterministic,
// order-independent seeds from stream and cache-key names.
func HashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Batches shuffles the split with rng and invokes fn on successive batches
// of at most batchSize samples. It is the training-loop iterator.
func Batches(rng *rand.Rand, s Split, batchSize int, fn func(x *tensor.Tensor, labels []int)) {
	n := s.Len()
	order := rng.Perm(n)
	c, h, w := s.X.Shape[1], s.X.Shape[2], s.X.Shape[3]
	vol := c * h * w
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		bs := end - start
		x := tensor.New(bs, c, h, w)
		labels := make([]int, bs)
		for i := 0; i < bs; i++ {
			b := order[start+i]
			copy(x.Data[i*vol:(i+1)*vol], s.X.Data[b*vol:(b+1)*vol])
			labels[i] = s.Labels[b]
		}
		fn(x, labels)
	}
}
