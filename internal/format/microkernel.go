package format

// Column-panel microkernels: the register-blocked inner loops of the
// blocked SpMM path (blocked.go). Each walks one output row's complete
// Col/Val span for a panel of 4 or 8 activation columns, keeping the panel
// accumulators in registers and storing each output element exactly once.
// Spans are walked four entries at a time so the per-entry work (index
// load, value load, address arithmetic, slice bounds) amortizes over
// 4×panel multiply-accumulates; a scalar remainder loop finishes ragged
// span tails.
//
// Bit-exactness contract: for every output element the additions happen in
// span order — acc_j += val[i]·b[col[i]][j] for i ascending — which is the
// scalar kernel's per-element order exactly (rowRange clears dst, then
// accumulates entries i in ascending order). Register blocking and entry
// unrolling change only where the partial sum lives between additions,
// never the sequence of floating-point operations, so every panel kernel
// is bit-identical to the scalar reference. The conformance suite
// (conformance_test.go) enforces this for every panel kernel.

// spanPanel8 computes output columns [j0, j0+8) of one row: eight register
// accumulators walk the span [i0, i1) once, then store. n is the output
// row stride (the SpMM batch width).
func spanPanel8(dst, bd []float64, col []uint16, val []float64, i0, i1, j0, n int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	i := i0
	for ; i+3 < i1; i += 4 {
		v0, v1, v2, v3 := val[i], val[i+1], val[i+2], val[i+3]
		s0 := bd[int(col[i])*n+j0:]
		s1 := bd[int(col[i+1])*n+j0:]
		s2 := bd[int(col[i+2])*n+j0:]
		s3 := bd[int(col[i+3])*n+j0:]
		s0, s1, s2, s3 = s0[:8:8], s1[:8:8], s2[:8:8], s3[:8:8]
		a0 += v0 * s0[0]
		a0 += v1 * s1[0]
		a0 += v2 * s2[0]
		a0 += v3 * s3[0]
		a1 += v0 * s0[1]
		a1 += v1 * s1[1]
		a1 += v2 * s2[1]
		a1 += v3 * s3[1]
		a2 += v0 * s0[2]
		a2 += v1 * s1[2]
		a2 += v2 * s2[2]
		a2 += v3 * s3[2]
		a3 += v0 * s0[3]
		a3 += v1 * s1[3]
		a3 += v2 * s2[3]
		a3 += v3 * s3[3]
		a4 += v0 * s0[4]
		a4 += v1 * s1[4]
		a4 += v2 * s2[4]
		a4 += v3 * s3[4]
		a5 += v0 * s0[5]
		a5 += v1 * s1[5]
		a5 += v2 * s2[5]
		a5 += v3 * s3[5]
		a6 += v0 * s0[6]
		a6 += v1 * s1[6]
		a6 += v2 * s2[6]
		a6 += v3 * s3[6]
		a7 += v0 * s0[7]
		a7 += v1 * s1[7]
		a7 += v2 * s2[7]
		a7 += v3 * s3[7]
	}
	for ; i < i1; i++ {
		v := val[i]
		s := bd[int(col[i])*n+j0:]
		s = s[:8:8]
		a0 += v * s[0]
		a1 += v * s[1]
		a2 += v * s[2]
		a3 += v * s[3]
		a4 += v * s[4]
		a5 += v * s[5]
		a6 += v * s[6]
		a7 += v * s[7]
	}
	d := dst[j0:]
	d = d[:8:8]
	d[0], d[1], d[2], d[3] = a0, a1, a2, a3
	d[4], d[5], d[6], d[7] = a4, a5, a6, a7
}

// spanPanel4 is spanPanel8 at panel width four — the ragged-tail microkernel
// for batch widths that are not multiples of eight (and the whole kernel
// for widths in [4, 8)).
func spanPanel4(dst, bd []float64, col []uint16, val []float64, i0, i1, j0, n int) {
	var a0, a1, a2, a3 float64
	i := i0
	for ; i+3 < i1; i += 4 {
		v0, v1, v2, v3 := val[i], val[i+1], val[i+2], val[i+3]
		s0 := bd[int(col[i])*n+j0:]
		s1 := bd[int(col[i+1])*n+j0:]
		s2 := bd[int(col[i+2])*n+j0:]
		s3 := bd[int(col[i+3])*n+j0:]
		s0, s1, s2, s3 = s0[:4:4], s1[:4:4], s2[:4:4], s3[:4:4]
		a0 += v0 * s0[0]
		a0 += v1 * s1[0]
		a0 += v2 * s2[0]
		a0 += v3 * s3[0]
		a1 += v0 * s0[1]
		a1 += v1 * s1[1]
		a1 += v2 * s2[1]
		a1 += v3 * s3[1]
		a2 += v0 * s0[2]
		a2 += v1 * s1[2]
		a2 += v2 * s2[2]
		a2 += v3 * s3[2]
		a3 += v0 * s0[3]
		a3 += v1 * s1[3]
		a3 += v2 * s2[3]
		a3 += v3 * s3[3]
	}
	for ; i < i1; i++ {
		v := val[i]
		s := bd[int(col[i])*n+j0:]
		s = s[:4:4]
		a0 += v * s[0]
		a1 += v * s[1]
		a2 += v * s[2]
		a3 += v * s[3]
	}
	d := dst[j0:]
	d = d[:4:4]
	d[0], d[1], d[2], d[3] = a0, a1, a2, a3
}

// spanPanelTail finishes the ragged column tail [j0, n) with n-j0 < 4, one
// register accumulator per column.
func spanPanelTail(dst, bd []float64, col []uint16, val []float64, i0, i1, j0, n int) {
	for j := j0; j < n; j++ {
		var a float64
		for i := i0; i < i1; i++ {
			a += val[i] * bd[int(col[i])*n+j]
		}
		dst[j] = a
	}
}
