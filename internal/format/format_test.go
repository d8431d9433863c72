package format

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// hybridMatrix builds a random matrix satisfying both CRISP invariants:
// N:M within rows and a uniform number of kept blocks per block row.
func hybridMatrix(rng *rand.Rand, rows, cols, b int, nm sparsity.NM, prunedRanks int) *tensor.Tensor {
	scores := tensor.New(rows, cols)
	for i := range scores.Data {
		scores.Data[i] = math.Abs(rng.NormFloat64()) + 0.01
	}
	mask := tensor.New(rows, cols)
	sparsity.ApplyNM(mask, scores, nm)
	g := sparsity.NewBlockGrid(rows, cols, b)
	bs := sparsity.BlockScores(tensor.Mul(scores, mask), g)
	rcs := sparsity.RankColumns(bs)
	for i := 0; i < prunedRanks && i < len(rcs); i++ {
		sparsity.PruneRankColumn(mask, g, rcs[i])
	}
	w := tensor.Randn(rng, 1, rows, cols)
	w.MulInPlace(mask)
	// Ensure no accidental zeros among kept entries (mask determines structure).
	for i := range w.Data {
		if mask.Data[i] != 0 && w.Data[i] == 0 {
			w.Data[i] = 0.5
		}
	}
	return w
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := hybridMatrix(rng, 8, 16, 4, sparsity.NM{N: 2, M: 4}, 1)
	c := EncodeCSR(m)
	if !tensor.Equal(c.Decode(), m, 0) {
		t.Fatal("CSR decode mismatch")
	}
}

func TestELLPACKRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := hybridMatrix(rng, 8, 16, 4, sparsity.NM{N: 2, M: 4}, 1)
	e := EncodeELLPACK(m)
	if !tensor.Equal(e.Decode(), m, 0) {
		t.Fatal("ELLPACK decode mismatch")
	}
}

func TestELLPACKPadsRaggedRows(t *testing.T) {
	m := tensor.New(2, 4)
	m.Set(1, 0, 0)
	m.Set(2, 0, 1)
	m.Set(3, 0, 2)
	m.Set(4, 1, 3) // row 1 has a single non-zero
	e := EncodeELLPACK(m)
	if e.Width != 3 {
		t.Fatalf("width %d, want 3", e.Width)
	}
	if !tensor.Equal(e.Decode(), m, 0) {
		t.Fatal("ragged decode mismatch")
	}
	// Metadata charges all padded slots.
	if e.MetadataBits() != int64(2*3*16) {
		t.Fatalf("metadata bits %d", e.MetadataBits())
	}
}

func TestCRISPRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, nm := range []sparsity.NM{{N: 1, M: 4}, {N: 2, M: 4}, {N: 3, M: 4}} {
		m := hybridMatrix(rng, 12, 24, 4, nm, 2)
		e, err := EncodeCRISP(m, 4, nm)
		if err != nil {
			t.Fatalf("%s: %v", nm, err)
		}
		if !tensor.Equal(e.Decode(), m, 0) {
			t.Fatalf("%s: CRISP decode mismatch", nm)
		}
	}
}

func TestCRISPRejectsViolations(t *testing.T) {
	dense := tensor.Full(1, 8, 8)
	if _, err := EncodeCRISP(dense, 4, sparsity.NM{N: 2, M: 4}); err == nil {
		t.Fatal("dense matrix accepted as 2:4")
	}
	if _, err := EncodeCRISP(tensor.New(8, 8), 6, sparsity.NM{N: 2, M: 4}); err == nil {
		t.Fatal("B not multiple of M accepted")
	}
	// A matrix one column wider than uint16 indices reach encodes, but
	// neither direct compiler makes a plan of it.
	wide := tensor.New(1, MaxCols+1)
	ce, err := EncodeCRISP(wide, 4, sparsity.NM{N: 2, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []interface{ Compile() *Plan }{EncodeCSR(wide), ce} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T compiled a %d-column matrix", e, MaxCols+1)
				}
			}()
			e.Compile()
		}()
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nm := sparsity.NM{N: 2, M: 4}
	m := hybridMatrix(rng, 8, 16, 4, nm, 1)
	x := tensor.Randn(rng, 1, 16, 5)
	want := tensor.MatMul(m, x)

	// spmm is what the storage formats' kernels have in common.
	type spmm interface {
		Name() string
		MatMul(b *tensor.Tensor) *tensor.Tensor
	}
	encs := []spmm{EncodeCSR(m), EncodeELLPACK(m)}
	if ce, err := EncodeCRISP(m, 4, nm); err == nil {
		encs = append(encs, ce)
	} else {
		t.Fatal(err)
	}
	for _, e := range encs {
		got := e.MatMul(x)
		if !tensor.Equal(got, want, 1e-9) {
			t.Fatalf("%s SpMM mismatch", e.Name())
		}
	}
}

func TestMetadataOrdering(t *testing.T) {
	// On a realistically sized hybrid matrix the paper's ordering must hold:
	// CRISP < CSR < ELLPACK metadata.
	rng := rand.New(rand.NewSource(6))
	nm := sparsity.NM{N: 2, M: 4}
	m := hybridMatrix(rng, 64, 256, 16, nm, 8) // half the block columns pruned
	csr := EncodeCSR(m)
	ell := EncodeELLPACK(m)
	cr, err := EncodeCRISP(m, 16, nm)
	if err != nil {
		t.Fatal(err)
	}
	if !(cr.MetadataBits() < csr.MetadataBits()) {
		t.Fatalf("CRISP %d not < CSR %d", cr.MetadataBits(), csr.MetadataBits())
	}
	if !(csr.MetadataBits() < ell.MetadataBits()) {
		t.Fatalf("CSR %d not < ELLPACK %d", csr.MetadataBits(), ell.MetadataBits())
	}
	// Overhead ratios in the paper's ballpark (≈5× and ≈7×): accept 3–10×.
	csrRatio := float64(csr.MetadataBits()) / float64(cr.MetadataBits())
	ellRatio := float64(ell.MetadataBits()) / float64(cr.MetadataBits())
	if csrRatio < 2.5 || csrRatio > 12 {
		t.Fatalf("CSR/CRISP ratio %.2f outside plausible band", csrRatio)
	}
	if ellRatio < csrRatio {
		t.Fatalf("ELLPACK ratio %.2f below CSR ratio %.2f", ellRatio, csrRatio)
	}
}

func TestAnalyticalModelsMatchEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nm := sparsity.NM{N: 2, M: 4}
	rows, cols, b := 16, 32, 4
	m := hybridMatrix(rng, rows, cols, b, nm, 3)
	csr := EncodeCSR(m)
	if got, want := csr.MetadataBits(), CSRMetadataBits(rows, cols, len(csr.Val)); got != want {
		t.Fatalf("CSR analytical %d vs encoder %d", want, got)
	}
	ell := EncodeELLPACK(m)
	if got, want := ell.MetadataBits(), ELLPACKMetadataBits(rows, ell.Width); got != want {
		t.Fatalf("ELLPACK analytical %d vs encoder %d", want, got)
	}
	cr, err := EncodeCRISP(m, b, nm)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cr.MetadataBits(), CRISPMetadataBits(rows, cols, b, cr.KeptPerRow, nm); got != want {
		t.Fatalf("CRISP analytical %d vs encoder %d", want, got)
	}
}

// Property: decode ∘ encode is the identity for every format on random
// hybrid matrices.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, ranksRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nm := sparsity.NM{N: int(nRaw)%3 + 1, M: 4}
		ranks := int(ranksRaw) % 3
		m := hybridMatrix(rng, 8, 16, 4, nm, ranks)
		if !tensor.Equal(EncodeCSR(m).Decode(), m, 0) {
			return false
		}
		if !tensor.Equal(EncodeELLPACK(m).Decode(), m, 0) {
			return false
		}
		ce, err := EncodeCRISP(m, 4, nm)
		if err != nil || !tensor.Equal(ce.Decode(), m, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Fatalf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// appendEncodeCRISP is EncodeCRISP's slot walk with BlockCols / Offsets / Val
// grown by append from nil, as the encoder did before it sized them once — the
// reference TestEncodeCRISPSizedOnce holds the sized encoder to.
func appendEncodeCRISP(m *tensor.Tensor, b int, nm sparsity.NM) *CRISPFormat {
	rows, cols := checkMatrix(m)
	g := sparsity.NewBlockGrid(rows, cols, b)
	e := &CRISPFormat{Rows: rows, Cols: cols, B: b, NM: nm, KeptPerRow: sparsity.KeptBlocksPerRow(m, g)[0]}
	for br := 0; br < g.GridRows(); br++ {
		for bc := 0; bc < g.GridCols(); bc++ {
			if !sparsity.BlockKept(m, g, br, bc) {
				continue
			}
			e.BlockCols = append(e.BlockCols, int32(bc))
			r0, r1, c0, c1 := g.Bounds(br, bc)
			for r := r0; r < r1; r++ {
				for g0 := c0; g0 < c1; g0 += nm.M {
					stored := 0
					for cc := g0; cc < min(g0+nm.M, c1) && stored < nm.N; cc++ {
						if v := m.Data[r*cols+cc]; v != 0 {
							e.Offsets, e.Val = append(e.Offsets, uint8(cc-g0)), append(e.Val, v)
							stored++
						}
					}
					for ; stored < nm.N; stored++ {
						e.Offsets, e.Val = append(e.Offsets, 0), append(e.Val, 0)
					}
				}
			}
		}
	}
	return e
}

// TestEncodeCRISPSizedOnce: the encoder allocates its three slices once, at
// a bound it never outgrows, and the encoding — and so the compiled plan,
// fingerprint included — is the append-grown one's, across the conformance
// grid's hybrid shapes plus two whose edge blocks are partial.
func TestEncodeCRISPSizedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	nm := sparsity.NM{N: 2, M: 4}
	perShape := 0.0
	for _, s := range [][3]int{{64, 128, 4}, {8, 16, 4}, {16, 32, 8}, {10, 20, 8}, {6, 12, 4}} {
		w := hybridMatrix(rng, s[0], s[1], s[2], nm, 1)
		got, err := EncodeCRISP(w, s[2], nm)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		want := appendEncodeCRISP(w, s[2], nm)
		if !slices.Equal(got.BlockCols, want.BlockCols) || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Val, want.Val) {
			t.Fatalf("%v: sized encoding differs from the append-grown one", s)
		}
		if gp, wp := got.Compile(), want.Compile(); gp.Fingerprint() != wp.Fingerprint() {
			t.Fatalf("%v: plan fingerprint %016x, append-grown encoding compiles to %016x", s, gp.Fingerprint(), wp.Fingerprint())
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := EncodeCRISP(w, s[2], nm); err != nil {
				t.Fatal(err)
			}
		})
		if perShape == 0 {
			perShape = allocs
		}
		if allocs != perShape {
			t.Errorf("%v: EncodeCRISP allocates %.0f objects, %.0f on the first shape: the count follows the matrix", s, allocs, perShape)
		}
	}
}
