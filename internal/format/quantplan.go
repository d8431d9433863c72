package format

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// maxQuantRowNNZ bounds a row's stored entries so the packed 32-bit
// accumulator lanes cannot overflow: each span product is at most
// |code|·ub ≤ 127·255 = 32385, so ⌊(2³²−1)/32385⌋ = 132622 entries always
// fit. Every layer in this repo is orders of magnitude below the bound.
const maxQuantRowNNZ = (1<<32 - 1) / (127 * 255)

// QuantPlan is the int8 image of a compiled execution plan: each stored
// weight replaced by a signed 8-bit code and one symmetric dequantization
// scale per output row (code · scale ≈ weight, scale = max|row|/127). It is
// the software analogue of running the CRISP format on a sparse tensor
// core in int8 mode (CRISP-STC), where both operands are 8-bit and products
// accumulate in int32.
//
// The SpMM kernel quantizes the activation matrix on the fly (one symmetric
// scale per activation column — per sample/position — so one badly scaled
// sample cannot crush another's precision), multiplies 8-bit operands into
// 32-bit integer accumulators, and dequantizes once on store:
//
//	out[r][j] = Σ code[i]·bq[col[i]][j] · RowScale[r] · colScale[j]
//
// To beat the float kernel's multiplier throughput on scalar hardware, the
// integer MAC runs as SWAR (SIMD within a register) over unsigned operands:
//
//   - activation codes are biased to ub = b+128 ∈ [1, 255] and packed two
//     32-bit lanes per 64-bit word, so one 64-bit multiply computes two
//     lane products with no carry between lanes (each lane stays < 2³² for
//     any row within maxQuantRowNNZ entries);
//   - weight codes are sign-split at quantization time: each row stores its
//     positive codes first, then its negatives (zero codes are dropped —
//     they contribute nothing), so both spans multiply by |code| ≥ 1 and
//     accumulate into separate non-negative lane sets, with no sign
//     handling in the inner loop;
//   - the store undoes the activation bias algebraically. Expanding
//     Σ w·(b+128) over both spans gives Σ w·b = ACC⁺ − ACC⁻ − 128·W, with
//     W = Σ codes fixed per row at quantization time — so the correction
//     costs nothing per entry, and the kernel pays about half a multiply
//     and one add per multiply-accumulate.
//
// Integer addition is associative and exact: results are identical under
// any accumulation order (including the sign reordering and 4-way
// unrolling), and the only rounding anywhere is quantization itself plus
// the one dequantizing store.
//
// A QuantPlan is immutable after Quantize and safe for concurrent MatMul
// use; per-call state lives in the caller's QuantScratch.
type QuantPlan struct {
	Rows, Cols int
	// RowPtr[r] .. RowPtr[r+1] is row r's span in Col/Code (len Rows+1);
	// NegPtr[r] splits it into the positive-code prefix [RowPtr[r],
	// NegPtr[r]) and the negative-code suffix [NegPtr[r], RowPtr[r+1]).
	RowPtr []int32
	NegPtr []int32
	// Col holds absolute column indices, Code the matching non-zero int8
	// weight codes, sign-grouped per row as described above.
	Col  []uint16
	Code []int8
	// RowScale dequantizes row r: weight ≈ Code·RowScale[r] (len Rows).
	RowScale []float64
	// rowSum[r] is Σ Code over row r — the W term of the bias correction,
	// fixed at quantization time.
	rowSum []int32
}

// SizeBytes reports the heap bytes of the quantized plan's slice payloads
// (RowPtr, NegPtr, Col, Code, RowScale and the row-sum correction terms).
func (q *QuantPlan) SizeBytes() int64 {
	return int64(len(q.RowPtr))*4 + int64(len(q.NegPtr))*4 + int64(len(q.Col))*2 +
		int64(len(q.Code)) + int64(len(q.RowScale))*8 + int64(len(q.rowSum))*4
}

// Quantize compiles the plan's weights to int8 at symmetric per-row
// scales, sign-grouping each row's codes for the SWAR kernel. Quantization
// is deterministic: the same plan always yields the same codes, scales and
// layout. Non-finite weights fail closed: deploying a NaN/Inf model at
// int8 would silently encode garbage codes, so it is an error instead.
func (p *Plan) Quantize() (*QuantPlan, error) {
	q := &QuantPlan{
		Rows:     p.Rows,
		Cols:     p.Cols,
		RowPtr:   make([]int32, len(p.RowPtr)),
		NegPtr:   make([]int32, p.Rows),
		RowScale: make([]float64, p.Rows),
		rowSum:   make([]int32, p.Rows),
		Col:      make([]uint16, 0, p.NNZ()),
		Code:     make([]int8, 0, p.NNZ()),
	}
	for r := 0; r < p.Rows; r++ {
		if nnz := int(p.RowPtr[r+1] - p.RowPtr[r]); nnz > maxQuantRowNNZ {
			return nil, fmt.Errorf("format: quantize: row %d stores %d entries, max %d (packed accumulator bound)", r, nnz, maxQuantRowNNZ)
		}
		maxAbs := 0.0
		for _, v := range p.Val[p.RowPtr[r]:p.RowPtr[r+1]] {
			a := math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("format: quantize: non-finite weight %v in row %d", v, r)
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		s := 1.0
		if maxAbs > 0 {
			s = maxAbs / 127
		}
		q.RowScale[r] = s
		inv := 1 / s
		code := func(i int32) int8 {
			c := math.Round(p.Val[i] * inv)
			if c > 127 {
				c = 127
			} else if c < -127 {
				c = -127
			}
			return int8(c)
		}
		sum := int32(0)
		// Positive codes first, then negatives; zero codes are dropped.
		for i := p.RowPtr[r]; i < p.RowPtr[r+1]; i++ {
			if c := code(i); c > 0 {
				q.Col = append(q.Col, p.Col[i])
				q.Code = append(q.Code, c)
				sum += int32(c)
			}
		}
		q.NegPtr[r] = int32(len(q.Code))
		for i := p.RowPtr[r]; i < p.RowPtr[r+1]; i++ {
			if c := code(i); c < 0 {
				q.Col = append(q.Col, p.Col[i])
				q.Code = append(q.Code, c)
				sum += int32(c)
			}
		}
		q.rowSum[r] = sum
		q.RowPtr[r+1] = int32(len(q.Code))
	}
	return q, nil
}

// QuantScratch holds one SpMM call's activation-quantization and
// accumulation buffers. Contents need not be initialized — every element is
// overwritten before use — so callers on a hot path hand in recycled arena
// memory and the call allocates nothing; the zero value makes MatMulInto
// allocate internally (tests, one-offs). Buffers may be longer than
// required.
type QuantScratch struct {
	// Packed receives the biased int8 activation codes, two 32-bit lanes
	// per word (Cols·⌈n/2⌉ entries).
	Packed []uint64
	// ColScale and ColInv receive each activation column's dequantization
	// scale and its reciprocal (n entries each).
	ColScale, ColInv []float64
	// AccP and AccN receive the packed positive- and negative-span
	// accumulators (Rows·⌈n/2⌉ entries each); each output row owns its
	// segments, so row-parallel workers never share accumulator memory.
	AccP, AccN []uint64
}

// Scratch returns a fully sized scratch for MatMulInto calls against
// batch-width-n activations — the pre-allocation hook for callers without
// an arena (benchmarks, long-lived single-plan loops).
func (q *QuantPlan) Scratch(n int) QuantScratch {
	return QuantScratch{}.grown(q.Rows, q.Cols, n)
}

// grown returns the scratch with every buffer at least the required size,
// allocating only the ones the caller left empty or short.
func (s QuantScratch) grown(rows, cols, n int) QuantScratch {
	halfW := (n + 1) / 2
	if len(s.Packed) < cols*halfW {
		s.Packed = make([]uint64, cols*halfW)
	}
	if len(s.ColScale) < n {
		s.ColScale = make([]float64, n)
	}
	if len(s.ColInv) < n {
		s.ColInv = make([]float64, n)
	}
	if len(s.AccP) < rows*halfW {
		s.AccP = make([]uint64, rows*halfW)
	}
	if len(s.AccN) < rows*halfW {
		s.AccN = make([]uint64, rows*halfW)
	}
	return s
}

// MatMul computes QuantPlan · B into a new tensor, allocating its own
// scratch — the convenience form of MatMulInto.
func (q *QuantPlan) MatMul(b *tensor.Tensor) *tensor.Tensor {
	_, n := checkSpMM(b, q.Cols)
	return q.MatMulInto(b, tensor.New(q.Rows, n), QuantScratch{})
}

// MatMulInto computes QuantPlan · B into out ([Rows, n], previous contents
// overwritten): B's columns are quantized to int8 at per-column symmetric
// scales, products accumulate in packed 32-bit integer lanes, and each
// output element is dequantized exactly once on store.
//
// Non-finite activation values fail closed instead of poisoning the
// integer accumulators with undefined conversions: a NaN encodes to code 0
// and ±Inf saturates to code ±127 (its column's scale excludes non-finite
// values), so the damage stays inside that sample.
func (q *QuantPlan) MatMulInto(b, out *tensor.Tensor, s QuantScratch) *tensor.Tensor {
	_, n := checkSpMM(b, q.Cols)
	if len(out.Shape) != 2 || out.Shape[0] != q.Rows || out.Shape[1] != n {
		panic(fmt.Sprintf("format: quant MatMulInto output %v, want [%d %d]", out.Shape, q.Rows, n))
	}
	s = s.grown(q.Rows, q.Cols, n)
	halfW := (n + 1) / 2
	quantizePacked(b.Data, q.Cols, n, halfW, s.Packed, s.ColScale, s.ColInv)
	return q.matmulPacked(s.Packed, s.ColScale, s.AccP, s.AccN, out, n, halfW)
}

// MatMulPackedInto is the pre-quantized entry point: the caller already
// encoded the activation matrix into packed biased lanes (two 32-bit
// lanes per word, quantizePacked's layout: Cols·⌈n/2⌉ words) with one
// dequantization scale per column, and the kernel goes straight to the
// integer MAC. This is how executors with structure-aware quantization
// (e.g. the conv path, which encodes each input element once — before
// im2col duplicates it KH·KW times) reuse the SpMM core; scratch supplies
// only the accumulators. out must be [Rows, n], its previous contents are
// overwritten.
func (q *QuantPlan) MatMulPackedInto(packed []uint64, colScale []float64, out *tensor.Tensor, s QuantScratch) *tensor.Tensor {
	if len(out.Shape) != 2 || out.Shape[0] != q.Rows {
		panic(fmt.Sprintf("format: quant MatMulPackedInto output %v, want [%d n]", out.Shape, q.Rows))
	}
	n := out.Shape[1]
	halfW := (n + 1) / 2
	if len(packed) < q.Cols*halfW || len(colScale) < n {
		panic(fmt.Sprintf("format: quant MatMulPackedInto: packed %d (want >= %d), scales %d (want >= %d)",
			len(packed), q.Cols*halfW, len(colScale), n))
	}
	if len(s.AccP) < q.Rows*halfW {
		s.AccP = make([]uint64, q.Rows*halfW)
	}
	if len(s.AccN) < q.Rows*halfW {
		s.AccN = make([]uint64, q.Rows*halfW)
	}
	return q.matmulPacked(packed, colScale, s.AccP, s.AccN, out, n, halfW)
}

// matmulPacked runs the integer MAC over pre-packed activations, fanning
// rows out across the kernel pool at batch scale. Int8 SpMM is the scalar
// SWAR walk at every batch width: a row's packed accumulator slice is only
// ⌈n/2⌉ words (one cache line at serving batch sizes), so the scratch
// slabs are already L1-resident and there is nothing for a register panel
// to save.
func (q *QuantPlan) matmulPacked(packed []uint64, colScale []float64, accP, accN []uint64, out *tensor.Tensor, n, halfW int) *tensor.Tensor {
	quantJobs.Run(q.Rows, len(q.Code)*n, quantJob{q: q, packed: packed, colScale: colScale, accP: accP, accN: accN, out: out, n: n, halfW: halfW})
	return out
}

// quantJob is matmulPacked's fan-out record.
type quantJob struct {
	tensor.Join
	q                  *QuantPlan
	packed, accP, accN []uint64
	colScale           []float64
	out                *tensor.Tensor
	n, halfW           int
}

var quantJobs tensor.JobPool[quantJob, *quantJob]

// Rows implements tensor.RowJob.
func (j *quantJob) Rows(r0, r1 int) {
	j.q.rowRange(j.packed, j.colScale, j.accP, j.accN, j.out, j.n, j.halfW, r0, r1)
}

// quantizePacked encodes the dense activation matrix bd ([rows, n]
// row-major) at one symmetric scale per column — colScale[j] =
// max|bd[:,j]|/127 (1 for an all-zero column, so zeros encode to zero) —
// writing biased codes (b+128 ∈ [1,255]) packed two 32-bit lanes per word.
// An odd trailing column is padded with the bias value (code 0); the store
// never reads the pad lane. Non-finite entries are excluded from the
// scale; NaN encodes to code 0, ±Inf saturates to code ±127.
func quantizePacked(bd []float64, rows, n, halfW int, packed []uint64, colScale, colInv []float64) {
	max := colScale[:n]
	clear(max)
	for r := 0; r < rows; r++ {
		for j, v := range bd[r*n : (r+1)*n] {
			// math.Abs(NaN) > x is false, so NaN never becomes a scale;
			// +Inf is rejected explicitly below.
			if a := math.Abs(v); a > max[j] {
				max[j] = a
			}
		}
	}
	for j, m := range max {
		if m == 0 || math.IsInf(m, 0) {
			colScale[j] = 1
		} else {
			colScale[j] = m / 127
		}
		colInv[j] = 1 / colScale[j]
	}
	// The encode pass is per-activation-row independent; batch-scale calls
	// fan it out over the shared kernel pool so the quantization pre-pass
	// does not serialize an otherwise row-parallel SpMM.
	encodeJobs.Run(rows, rows*n, encodeJob{bd: bd, colInv: colInv, packed: packed, n: n, halfW: halfW})
}

// encodeJob is quantizePacked's fan-out record.
type encodeJob struct {
	tensor.Join
	bd, colInv []float64
	packed     []uint64
	n, halfW   int
}

var encodeJobs tensor.JobPool[encodeJob, *encodeJob]

// Rows implements tensor.RowJob: it encodes activation rows [r0, r1).
func (j *encodeJob) Rows(r0, r1 int) {
	n, halfW, colInv := j.n, j.halfW, j.colInv
	for r := r0; r < r1; r++ {
		src := j.bd[r*n : (r+1)*n]
		dst := j.packed[r*halfW : (r+1)*halfW]
		for jp := 0; jp < halfW; jp++ {
			j0 := 2 * jp
			w := EncodeBiased(src[j0], colInv[j0])
			if j0+1 < n {
				w |= EncodeBiased(src[j0+1], colInv[j0+1]) << 32
			} else {
				w |= 128 << 32 // pad lane: biased zero
			}
			dst[jp] = w
		}
	}
}

// EncodeBiased rounds v/scale (inv = 1/scale) to the symmetric int8 window
// and biases it to unsigned [1, 255] — the lane encoding MatMulPackedInto
// expects. The fast path turns round-to-nearest (half up) into a single
// truncating conversion by adding 128.5 before the int conversion; callers
// with in-range scales (inv = 127/max) always take it. The range test
// fails for NaN (both comparisons false), which falls through to the
// clamping/fail-closed tail.
func EncodeBiased(v, inv float64) uint64 {
	t := v*inv + 128.5
	if t >= 1 && t < 256 {
		return uint64(int32(t))
	}
	switch {
	case t >= 256:
		return 255
	case t < 1: // below window (finite) or -Inf
		return 1
	default: // NaN
		return 128
	}
}

// spanMAC accumulates one sign span's entries into acc: for each stored
// entry, |code| times the gathered packed activation word. The walk is
// 4-way unrolled like the float plan kernel's purely to cut accumulator
// loads/stores; integer addition is exact, so unrolling cannot change the
// result. neg selects the negative span (codes negated to their magnitude).
func (q *QuantPlan) spanMAC(acc []uint64, packed []uint64, halfW, i, end int, neg bool) {
	sign := int32(1)
	if neg {
		sign = -1
	}
	for ; i+3 < end; i += 4 {
		w0 := uint64(sign * int32(q.Code[i]))
		w1 := uint64(sign * int32(q.Code[i+1]))
		w2 := uint64(sign * int32(q.Code[i+2]))
		w3 := uint64(sign * int32(q.Code[i+3]))
		p0 := packed[int(q.Col[i])*halfW : int(q.Col[i])*halfW+halfW]
		p1 := packed[int(q.Col[i+1])*halfW : int(q.Col[i+1])*halfW+halfW]
		p2 := packed[int(q.Col[i+2])*halfW : int(q.Col[i+2])*halfW+halfW]
		p3 := packed[int(q.Col[i+3])*halfW : int(q.Col[i+3])*halfW+halfW]
		for j, q0 := range p0 {
			a := acc[j] + w0*q0
			a += w1 * p1[j]
			a += w2 * p2[j]
			a += w3 * p3[j]
			acc[j] = a
		}
	}
	for ; i < end; i++ {
		w := uint64(sign * int32(q.Code[i]))
		src := packed[int(q.Col[i])*halfW : (int(q.Col[i])+1)*halfW]
		for j, qv := range src {
			acc[j] += w * qv
		}
	}
}

// rowRange computes output rows [row0, row1): the positive and negative
// sign spans accumulate separately (spanMAC), then one bias-correcting,
// dequantizing store per element recombines them.
func (q *QuantPlan) rowRange(packed []uint64, colScale []float64, accPBuf, accNBuf []uint64, out *tensor.Tensor, n, halfW, row0, row1 int) {
	for r := row0; r < row1; r++ {
		ap := accPBuf[r*halfW : (r+1)*halfW]
		an := accNBuf[r*halfW : (r+1)*halfW]
		clear(ap)
		clear(an)
		q.spanMAC(ap, packed, halfW, int(q.RowPtr[r]), int(q.NegPtr[r]), false)
		q.spanMAC(an, packed, halfW, int(q.NegPtr[r]), int(q.RowPtr[r+1]), true)
		rs := q.RowScale[r]
		wsum := 128 * int64(q.rowSum[r])
		dst := out.Data[r*n : (r+1)*n]
		for j := range dst {
			shift := 32 * uint(j&1)
			lane := int64((ap[j>>1]>>shift)&0xffffffff) - int64((an[j>>1]>>shift)&0xffffffff)
			dst[j] = float64(lane-wsum) * rs * colScale[j]
		}
	}
}
