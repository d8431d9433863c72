package format

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparsity"
)

// hybridPlan compiles a random hybrid-sparse matrix to a plan.
func hybridPlan(t *testing.T, rng *rand.Rand, rows, cols, b int, nm sparsity.NM, pruned int) *Plan {
	t.Helper()
	e, err := EncodeCRISP(hybridMatrix(rng, rows, cols, b, nm, pruned), b, nm)
	if err != nil {
		t.Fatal(err)
	}
	return e.Compile()
}

// TestSizeBytesManualSums checks the accounting helpers against by-hand
// element sums, at one segment a row and at three. Against the CSR-shaped
// layout the plans had before (one uint16 column an entry and Rows+1 row
// pointers: 1 988 B for the 16×32 float plan here, 1 796 B now), a float
// plan moves by exactly −(entries) + 4·Rows·(⌈Cols/256⌉−1) bytes and an
// int8 image by −(codes) + 8·Rows·(⌈Cols/256⌉−1): one byte less a column,
// one row pointer (and at int8 one NegPtr) more a segment past a row's
// first.
func TestSizeBytesManualSums(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	for _, cols := range []int{32, 600} {
		p := hybridPlan(t, rng, 16, cols, 8, sparsity.NM{N: 2, M: 4}, 1)
		want := int64(len(p.RowPtr))*4 + int64(len(p.Col)) + int64(len(p.Val))*8
		if got := p.SizeBytes(); got != want {
			t.Fatalf("%d columns: Plan.SizeBytes %d, want %d", cols, got, want)
		}
		extra := int64(p.Rows * (segs(cols) - 1))
		csr := int64(p.Rows+1)*4 + int64(p.NNZ())*(2+8)
		if want != csr-int64(p.NNZ())+4*extra {
			t.Fatalf("%d columns: a plan of %d B is not its CSR-shaped %d B − %d entries + 4·%d", cols, want, csr, p.NNZ(), extra)
		}
		if cols == 32 && (csr != 1988 || want != 1796) {
			t.Fatalf("the 16×32 plan is %d B, CSR-shaped %d B; recorded 1 796 B and 1 988 B", want, csr)
		}
		q, err := p.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		wantQ := int64(len(q.RowPtr))*4 + int64(len(q.NegPtr))*4 + int64(len(q.Col)) +
			int64(len(q.Code)) + int64(len(q.RowScale))*8 + int64(len(q.rowSum))*4
		if got := q.SizeBytes(); got != wantQ {
			t.Fatalf("%d columns: QuantPlan.SizeBytes %d, want %d", cols, got, wantQ)
		}
		codes := int64(len(q.Code))
		if csr := int64(q.Rows+1)*4 + int64(q.Rows)*(4+8+4) + codes*(2+1); wantQ != csr-codes+8*extra {
			t.Fatalf("%d columns: an image of %d B is not its CSR-shaped %d B − %d codes + 8·%d", cols, wantQ, csr, codes, extra)
		}
	}
}

// TestHashesFoldTheCSRImage holds Fingerprint and QuantPlan.Hash to hash/fnv
// over the bytes a CSR image of the matrix holds, computed here from the
// dense matrix: Rows, Cols, the Rows+1 row starts, then each entry's
// absolute column and value (at int8: each row's positive codes in
// ascending column order, then its negatives, and the row scales). Those
// are the bytes both folded when a plan kept one absolute column an entry,
// so no fingerprint or quant signature moves with the segment layout.
func TestHashesFoldTheCSRImage(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	for _, cols := range []int{7, 256, 600, 1000} {
		m := segmentEdges(rng, 9, cols)
		for i := range m.Data {
			if rng.Intn(5) == 0 {
				m.Data[i] = rng.NormFloat64() * math.Ldexp(1, -rng.Intn(10))
			}
		}
		rows := m.Shape[0]
		fp, qh := fnv.New64a(), fnv.New64a()
		put := func(h hash.Hash64, v uint64, n int) {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:n])
		}
		put(fp, uint64(rows), 4)
		put(fp, uint64(cols), 4)
		put(qh, uint64(rows), 8)
		put(qh, uint64(cols), 8)
		scales := make([]float64, rows)
		codes := make([][2][][2]int, rows) // per row: positive and negative (col, code)
		nnz, ncodes := 0, 0
		put(fp, 0, 4)
		put(qh, 0, 8)
		for r := range rows {
			row := m.Data[r*cols : (r+1)*cols]
			scale := 0.0
			for _, v := range row {
				scale = max(scale, math.Abs(v))
			}
			if scales[r] = scale / 127; scale == 0 {
				scales[r] = 1
			}
			for c, v := range row {
				if v != 0 {
					nnz++
				}
				switch code := int(max(-127, min(127, math.Round(v*(1/scales[r]))))); {
				case code > 0:
					codes[r][0] = append(codes[r][0], [2]int{c, code})
				case code < 0:
					codes[r][1] = append(codes[r][1], [2]int{c, code})
				}
			}
			ncodes += len(codes[r][0]) + len(codes[r][1])
			put(fp, uint64(nnz), 4)
			put(qh, uint64(ncodes), 8)
		}
		for i, v := range m.Data {
			if v != 0 {
				put(fp, uint64(i%cols), 4)
				put(fp, math.Float64bits(v), 8)
			}
		}
		for r := range rows {
			for _, span := range codes[r] {
				for _, cc := range span {
					put(qh, uint64(cc[0])<<8|uint64(uint8(int8(cc[1]))), 8)
				}
			}
		}
		for _, s := range scales {
			put(qh, math.Float64bits(s), 8)
		}

		p := EncodeCSR(m).Compile()
		if got := p.Fingerprint(); got != fp.Sum64() {
			t.Fatalf("%d columns: Fingerprint %016x, the CSR image's bytes %016x", cols, got, fp.Sum64())
		}
		q, err := p.Quantize()
		if err != nil {
			t.Fatal(err)
		}
		if got := uint64(q.Hash(HashInit)); got != qh.Sum64() {
			t.Fatalf("%d columns: QuantPlan.Hash %016x, the CSR image's bytes %016x", cols, got, qh.Sum64())
		}
	}
}

// TestFingerprint: equal content hashes equal; any value change hashes
// differently.
func TestFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	p := hybridPlan(t, rng, 16, 32, 8, sparsity.NM{N: 2, M: 4}, 1)
	twin := &Plan{Rows: p.Rows, Cols: p.Cols, RowPtr: p.RowPtr, Col: p.Col, Val: append([]float64(nil), p.Val...)}
	fp := p.Fingerprint()
	if twin.Fingerprint() != fp {
		t.Fatal("equal plans fingerprint differently")
	}
	twin.Val[0] += 1e-12
	if twin.Fingerprint() == fp {
		t.Fatal("value change kept the fingerprint")
	}
}

// TestHash64MatchesFNV pins Hash64 to hash/fnv's FNV-1a: fingerprints are
// compared across processes (handoff manifests), so the fold must be the
// standard one.
func TestHash64MatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	want := fnv.New64a()
	got := HashInit
	if uint64(got) != want.Sum64() {
		t.Fatalf("empty state %016x, fnv %016x", uint64(got), want.Sum64())
	}
	var buf [8]byte
	for i := 0; i < 64; i++ {
		v := rng.Uint64()
		if i%2 == 0 {
			binary.LittleEndian.PutUint64(buf[:], v)
			want.Write(buf[:])
			got = got.Uint64(v)
		} else {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			want.Write(buf[:4])
			got = got.Uint32(uint32(v))
		}
		if uint64(got) != want.Sum64() {
			t.Fatalf("after %d words: %016x, fnv %016x", i+1, uint64(got), want.Sum64())
		}
	}
}
