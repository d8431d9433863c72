// Package checkpoint serializes classifiers — weights, pruning masks and
// batch-norm running statistics — to a compact self-describing binary
// stream, so a pre-trained universal model can be saved once and
// personalized many times (the deployment story of the paper).
//
// The format is versioned and endian-fixed (little endian):
//
//	magic "CRSP" | u32 version | u32 #params
//	per param: name | u32 #dims | dims | f64 weights | u8 hasMask | packed mask bits
//	u32 #bnStats; per stat: name | u32 len | f64 means | f64 vars
//
// Masks are bit-packed (8 elements per byte); weights are raw float64.
//
// Every format in the package — this v1 stream, the v3 model delta
// (delta.go) and the v4 personalization record that carries one
// (personalization.go) — is written and read by one codec (codec.go) that
// works a slice at a time through a 4 KiB chunk. Each Save, Load, Encode,
// Apply, View, Write or Read call allocates one chunk and owns it until it
// returns; there is no package-level buffer and no pool, because a hot
// tenant is read concurrently by its write-behind snapshot and by demotion,
// and scratch shared between calls is how one tenant's weights end up in
// another's record. The writer, and the CRC-64 of the checksummed formats,
// see one call per chunk, not one per value — on a file that is the
// difference between a syscall per float and one per 4 KiB. So the cost of
// a call is a handful of allocations set by the number of parameters
// (listing them, the chunk, the delta's bytes, the record's own strings),
// whatever their size.
//
// A loader asks its reader for exactly the bytes of the field it is
// decoding, never ahead: it consumes its record and not one byte after it,
// so records can sit back to back in a stream, and a loader handed a file
// needs no bufio in front of it (a buffering reader in front of a loader is
// harmless but takes what follows the record with it).
package checkpoint

import (
	"fmt"
	"io"

	"repro/internal/nn"
)

const (
	magic   = "CRSP"
	version = 1
)

// Save writes the classifier's parameters, masks and batch-norm running
// statistics to w.
func Save(w io.Writer, clf *nn.Classifier) error {
	bw := &enc{w: w}
	raw(bw, magic)
	bw.u32(version)
	params := clf.Params()
	bw.u32(uint32(len(params)))
	for _, p := range params {
		bw.str(p.Name)
		bw.u32(uint32(len(p.W.Shape)))
		for _, d := range p.W.Shape {
			bw.u32(uint32(d))
		}
		bw.f64s(p.W.Data)
		bw.mask(p)
	}

	stats := bnStats(clf)
	bw.u32(uint32(len(stats)))
	for _, s := range stats {
		bw.str(s.name)
		bw.u32(uint32(len(s.mean)))
		bw.f64s(s.mean)
		bw.f64s(s.variance)
	}
	return bw.finish()
}

// Load restores a checkpoint written by Save into clf, whose architecture
// must match (same parameters in the same order with the same shapes).
func Load(r io.Reader, clf *nn.Classifier) error {
	br := &dec{r: r}
	if err := br.header(magic, version, "checkpoint"); err != nil {
		return err
	}
	params := clf.Params()
	n := br.u32()
	if br.err != nil {
		return br.err
	}
	if int(n) != len(params) {
		return fmt.Errorf("checkpoint: %d stored params, model has %d", n, len(params))
	}
	for _, p := range params {
		name, ok := br.expect(p.Name)
		if br.err != nil {
			return br.err
		}
		if !ok {
			return fmt.Errorf("checkpoint: stored param %q does not match model param %q", name, p.Name)
		}
		nd := int(br.u32())
		if nd != len(p.W.Shape) {
			return fmt.Errorf("checkpoint: %s rank %d, model rank %d", name, nd, len(p.W.Shape))
		}
		for i := 0; i < nd; i++ {
			if d := int(br.u32()); d != p.W.Shape[i] {
				return fmt.Errorf("checkpoint: %s dim %d is %d, model has %d", name, i, d, p.W.Shape[i])
			}
		}
		br.f64s(p.W.Data)
		br.mask(p)
		if br.err != nil {
			return br.err
		}
	}

	stats := bnStats(clf)
	ns := int(br.u32())
	if br.err != nil {
		return br.err
	}
	if ns != len(stats) {
		return fmt.Errorf("checkpoint: %d stored norm stats, model has %d", ns, len(stats))
	}
	for _, s := range stats {
		name, ok := br.expect(s.name)
		if br.err == nil && !ok {
			return fmt.Errorf("checkpoint: norm stat %q does not match %q", name, s.name)
		}
		l := int(br.u32())
		if l != len(s.mean) {
			return fmt.Errorf("checkpoint: norm stat %s length %d, model has %d", name, l, len(s.mean))
		}
		br.f64s(s.mean)
		br.f64s(s.variance)
	}
	return br.err
}

// stat aliases one batch-norm layer's running buffers.
type stat struct {
	name     string
	mean     []float64
	variance []float64
}

// bnStats collects batch-norm running statistics in execution order.
func bnStats(clf *nn.Classifier) []stat {
	var out []stat
	nn.Walk(clf.Net, func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			out = append(out, stat{
				name:     bn.Gamma.Name, // unique per layer
				mean:     bn.RunMean.Data,
				variance: bn.RunVar.Data,
			})
		}
	})
	return out
}
