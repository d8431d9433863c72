package pruner

import (
	"repro/internal/nn"
)

// FLOPsRatio returns effective MACs / dense MACs of clf under its current
// masks, the "normalized FLOPs ratio" of the paper's Fig. 7 table. Compute
// scales with each layer's weight density (structured sparsity skips whole
// blocks/groups, so density is the compute fraction).
//
// Precondition: clf has run at least one training pass (every pruner
// fine-tunes before it reports), on inputs of the size the ratio is for.
// The input geometry comes from the last training pass — Conv2D.Geom and
// DepthwiseConv2D.Geom, and PatchEmbed.LastTokens, which the token layers
// that follow it in Walk order reuse — since an eval-mode pass records
// nothing.
func FLOPsRatio(clf *nn.Classifier) float64 {
	var dense, effective, tokens float64
	nn.Walk(clf.Net, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Conv2D:
			g := v.Geom
			macs := float64(v.OutC) * float64(g.InC*g.KH*g.KW) * float64(g.OutH()*g.OutW())
			dense += macs
			effective += macs * v.Weight.Density()
		case *nn.DepthwiseConv2D:
			g := v.Geom
			macs := float64(g.InC) * float64(g.KH*g.KW) * float64(g.OutH()*g.OutW())
			dense += macs
			effective += macs * v.Weight.Density()
		case *nn.Linear:
			macs := float64(v.In) * float64(v.Out)
			dense += macs
			effective += macs * v.Weight.Density()
		case *nn.TokenLinear:
			macs := float64(v.In) * float64(v.Out) * tokens
			dense += macs
			effective += macs * v.Weight.Density()
		case *nn.PatchEmbed:
			tokens = float64(v.LastTokens)
			macs := float64(v.C*v.P*v.P) * float64(v.D) * tokens
			dense += macs
			effective += macs * v.Weight.Density()
		case *nn.MultiHeadAttention:
			t, d := tokens, float64(v.D)
			proj := d * d * t
			for _, p := range []*nn.Param{v.Wq, v.Wk, v.Wv, v.Wo} {
				dense += proj
				effective += proj * p.Density()
			}
			// The attention matrix itself (QKᵀ and A·V) is dense compute,
			// unaffected by weight pruning.
			attn := 2 * t * t * d
			dense += attn
			effective += attn
		}
	})
	if dense == 0 {
		return 1
	}
	return effective / dense
}
