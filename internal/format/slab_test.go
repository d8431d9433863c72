package format

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/sparsity"
	"repro/internal/tensor"
)

// slabPlan compiles a hybrid-sparse matrix to a plan plus the dense slab
// that backs it (the "universal weights" the kept values came from).
func slabPlan(t *testing.T, rng *rand.Rand, rows, cols, b int, nm sparsity.NM, pruned int) (*Plan, *ValueSlab, *tensor.Tensor) {
	t.Helper()
	w := hybridMatrix(rng, rows, cols, b, nm, pruned)
	e, err := EncodeCRISP(w, b, nm)
	if err != nil {
		t.Fatal(err)
	}
	return e.Compile(), NewValueSlab(w), w
}

// TestBindSlabBitIdentical: a slab-bound plan must multiply bit-identically
// to its owned twin, across serial and row-parallel batch widths.
func TestBindSlabBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, s := range planShapes {
		bound, slab, _ := slabPlan(t, rng, s.rows, s.cols, s.b, s.nm, s.pruned)
		owned := &Plan{Rows: bound.Rows, Cols: bound.Cols, RowPtr: bound.RowPtr, Col: bound.Col, Val: append([]float64(nil), bound.Val...)}
		if !bound.BindSlab(slab) {
			t.Fatalf("%dx%d: BindSlab refused matching universal values", s.rows, s.cols)
		}
		if !bound.Shared() || bound.Val != nil {
			t.Fatalf("%dx%d: bound plan still owns values", s.rows, s.cols)
		}
		if bound.NNZ() != owned.NNZ() {
			t.Fatalf("%dx%d: NNZ %d after binding, want %d", s.rows, s.cols, bound.NNZ(), owned.NNZ())
		}
		for _, n := range planBatches {
			x := tensor.Randn(rng, 1, s.cols, n)
			if !tensor.Equal(bound.MatMul(x), owned.MatMul(x), 0) {
				t.Fatalf("%dx%d batch %d: slab-bound result differs from owned", s.rows, s.cols, n)
			}
		}
	}
}

// TestBindSlabRejectsDivergedValues: any kept value differing from the slab
// must refuse the bind and leave the plan untouched.
func TestBindSlabRejectsDivergedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	p, slab, _ := slabPlan(t, rng, 16, 32, 8, sparsity.NM{N: 2, M: 4}, 1)
	if p.NNZ() == 0 {
		t.Fatal("empty plan")
	}
	p.Val[p.NNZ()/2] += 1e-9 // a fine-tuned weight
	if p.BindSlab(slab) {
		t.Fatal("BindSlab accepted a diverged value")
	}
	if p.Shared() || p.Val == nil {
		t.Fatal("failed bind mutated the plan")
	}
	// Dimension mismatches refuse too.
	if p.BindSlab(&ValueSlab{Rows: 1, Cols: 1, Data: []float64{0}}) {
		t.Fatal("BindSlab accepted mismatched dimensions")
	}
}

// TestQuantizeSlabIdentical: quantizing a slab-bound plan must yield the
// exact codes, scales, layout and correction terms of the owned plan —
// the int8 identity the warm tier's deterministic re-quantization rests on.
func TestQuantizeSlabIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	bound, slab, _ := slabPlan(t, rng, 32, 64, 8, sparsity.NM{N: 2, M: 4}, 2)
	owned := &Plan{Rows: bound.Rows, Cols: bound.Cols, RowPtr: bound.RowPtr, Col: bound.Col, Val: append([]float64(nil), bound.Val...)}
	if !bound.BindSlab(slab) {
		t.Fatal("BindSlab refused")
	}
	qb, err := bound.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	qo, err := owned.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	if len(qb.Code) != len(qo.Code) {
		t.Fatalf("code count %d vs %d", len(qb.Code), len(qo.Code))
	}
	for i := range qb.Code {
		if qb.Code[i] != qo.Code[i] || qb.Col[i] != qo.Col[i] {
			t.Fatalf("entry %d: code/col diverged", i)
		}
	}
	for r := 0; r < qb.Rows; r++ {
		if qb.RowScale[r] != qo.RowScale[r] || qb.rowSum[r] != qo.rowSum[r] ||
			qb.RowPtr[r+1] != qo.RowPtr[r+1] || qb.NegPtr[r] != qo.NegPtr[r] {
			t.Fatalf("row %d: quant metadata diverged", r)
		}
	}
}

// TestSizeBytesManualSums checks the accounting helpers against by-hand
// element sums, owned and slab-bound.
func TestSizeBytesManualSums(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	p, slab, _ := slabPlan(t, rng, 16, 32, 8, sparsity.NM{N: 2, M: 4}, 1)
	want := int64(len(p.RowPtr))*4 + int64(len(p.Col))*4 + int64(len(p.Val))*8
	if got := p.SizeBytes(); got != want {
		t.Fatalf("owned Plan.SizeBytes %d, want %d", got, want)
	}
	q, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	wantQ := int64(len(q.RowPtr))*4 + int64(len(q.NegPtr))*4 + int64(len(q.Col))*4 +
		int64(len(q.Code)) + int64(len(q.RowScale))*8 + int64(len(q.rowSum))*4
	if got := q.SizeBytes(); got != wantQ {
		t.Fatalf("QuantPlan.SizeBytes %d, want %d", got, wantQ)
	}
	owned := p.SizeBytes()
	if !p.BindSlab(slab) {
		t.Fatal("BindSlab refused")
	}
	wantBound := int64(len(p.RowPtr))*4 + int64(len(p.Col))*4
	if got := p.SizeBytes(); got != wantBound {
		t.Fatalf("slab-bound Plan.SizeBytes %d, want %d", got, wantBound)
	}
	if p.SizeBytes() >= owned {
		t.Fatalf("binding did not shrink owned bytes: %d vs %d", p.SizeBytes(), owned)
	}
}

// TestFingerprint: equal content hashes equal (including across slab
// binding); any structural or value change hashes differently.
func TestFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	p, slab, _ := slabPlan(t, rng, 16, 32, 8, sparsity.NM{N: 2, M: 4}, 1)
	twin := &Plan{Rows: p.Rows, Cols: p.Cols, RowPtr: p.RowPtr, Col: p.Col, Val: append([]float64(nil), p.Val...)}
	fp := p.Fingerprint()
	if twin.Fingerprint() != fp {
		t.Fatal("equal plans fingerprint differently")
	}
	if !p.BindSlab(slab) {
		t.Fatal("BindSlab refused")
	}
	if p.Fingerprint() != fp {
		t.Fatal("fingerprint changed across BindSlab")
	}
	mutated := &Plan{Rows: twin.Rows, Cols: twin.Cols, RowPtr: twin.RowPtr, Col: twin.Col, Val: append([]float64(nil), twin.Val...)}
	mutated.Val[0] += 1e-12
	if mutated.Fingerprint() == fp {
		t.Fatal("value change kept the fingerprint")
	}
	if !plansEqual(p, twin) {
		t.Fatal("plansEqual rejects slab-bound twin")
	}
	if plansEqual(p, mutated) {
		t.Fatal("plansEqual accepts mutated values")
	}
}

// TestRegistry: interning deduplicates equal plans onto one canonical
// instance, and equal int8 images onto one, each keyed on its own content;
// releasing the last reference drops the entry. Stats charges exactly what
// the entries retain.
func TestRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	reg := NewRegistry()
	p1, _, _ := slabPlan(t, rng, 16, 32, 8, sparsity.NM{N: 2, M: 4}, 1)
	p2 := &Plan{Rows: p1.Rows, Cols: p1.Cols, RowPtr: p1.RowPtr, Col: p1.Col, Val: append([]float64(nil), p1.Val...)}
	fp := p1.Fingerprint()

	got, r1 := reg.Intern(p1, fp)
	if got != p1 {
		t.Fatal("first intern did not canonicalize the new plan")
	}
	got, r2 := reg.Intern(p2, fp)
	if got != p1 {
		t.Fatal("equal plan did not dedup onto the canonical instance")
	}
	if plans, refs, bytes := reg.Stats(); plans != 1 || refs != 2 || bytes != p1.SizeBytes() {
		t.Fatalf("Stats = (%d, %d, %d), want (1, 2, %d)", plans, refs, bytes, p1.SizeBytes())
	}

	// Images intern beside plans: two quantizations of equal plans share
	// one, and the registry holds the image alone — no float plan behind it.
	q1, err := p1.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := p2.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	qfp := uint64(q1.Hash(HashInit))
	if uint64(q2.Hash(HashInit)) != qfp {
		t.Fatal("equal images hash differently")
	}
	gq, qr1 := reg.InternQuant(q1, qfp)
	if gq != q1 {
		t.Fatal("first intern did not canonicalize the new image")
	}
	gq, qr2 := reg.InternQuant(q2, qfp)
	if gq != q1 {
		t.Fatal("equal image did not dedup onto the canonical instance")
	}
	if plans, refs, bytes := reg.Stats(); plans != 2 || refs != 4 || bytes != p1.SizeBytes()+q1.SizeBytes() {
		t.Fatalf("Stats = (%d, %d, %d), want (2, 4, %d)", plans, refs, bytes, p1.SizeBytes()+q1.SizeBytes())
	}

	// A key collision with unequal content — another plan, a changed code,
	// or an image under a plan's key — stays private: the caller's own
	// instance back, a zero Ref that releases as a no-op.
	other, _, _ := slabPlan(t, rng, 8, 16, 4, sparsity.NM{N: 2, M: 4}, 1)
	q3, err := p1.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	q3.Code[0] ^= 1
	if q3.Hash(HashInit) == q1.Hash(HashInit) {
		t.Fatal("code change kept the image hash")
	}
	if got, ref := reg.Intern(other, fp); got != other || ref != (Ref{}) {
		t.Fatal("colliding plan was not kept private")
	}
	if got, ref := reg.InternQuant(q3, qfp); got != q3 || ref != (Ref{}) {
		t.Fatal("colliding image was not kept private")
	}
	if got, ref := reg.InternQuant(q2, fp); got != q2 || ref != (Ref{}) {
		t.Fatal("image under a plan's key was not kept private")
	}
	reg.Release(Ref{})
	if _, refs, _ := reg.Stats(); refs != 4 {
		t.Fatalf("collisions moved the reference count to %d", refs)
	}

	reg.Release(qr1)
	reg.Release(qr2)
	reg.Release(r1)
	if plans, refs, bytes := reg.Stats(); plans != 1 || refs != 1 || bytes != p1.SizeBytes() {
		t.Fatalf("Stats = (%d, %d, %d) with one plan reference left, want (1, 1, %d)", plans, refs, bytes, p1.SizeBytes())
	}
	reg.Release(r2)
	if plans, _, _ := reg.Stats(); plans != 0 {
		t.Fatal("last release did not drop the entry")
	}
	// A stale Ref must not drop a newer entry under the same key.
	reg.Intern(p2, fp)
	reg.Release(r2)
	if plans, _, _ := reg.Stats(); plans != 1 {
		t.Fatal("a stale reference dropped a live entry")
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
