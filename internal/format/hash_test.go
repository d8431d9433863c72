package format

import (
	"encoding/binary"
	"hash/fnv"
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
// element sums.
func TestSizeBytesManualSums(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	p := hybridPlan(t, rng, 16, 32, 8, sparsity.NM{N: 2, M: 4}, 1)
	want := int64(len(p.RowPtr))*4 + int64(len(p.Col))*2 + int64(len(p.Val))*8
	if got := p.SizeBytes(); got != want {
		t.Fatalf("Plan.SizeBytes %d, want %d", got, want)
	}
	q, err := p.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	wantQ := int64(len(q.RowPtr))*4 + int64(len(q.NegPtr))*4 + int64(len(q.Col))*2 +
		int64(len(q.Code)) + int64(len(q.RowScale))*8 + int64(len(q.rowSum))*4
	if got := q.SizeBytes(); got != wantQ {
		t.Fatalf("QuantPlan.SizeBytes %d, want %d", got, wantQ)
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
