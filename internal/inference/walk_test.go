package inference

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/sparsity"
)

// TestEngineDeltaMatchesModelDelta holds the delta a Float32 engine gives
// back (checkpoint.EncodeEngineDelta over Walk) to the one its tenant
// classifier encodes to, on every family: byte for byte for a fine-tuned and
// a mask-only tenant, from an engine compiled from the tenant itself and from
// one compiled from a delta view (the way the server compiles every engine).
// Two tenants cannot round-trip byte for byte, and compile to the same engine
// instead — same Fingerprint, same QuantSignature at Int8, logits bit for bit
// at batch 1 and 16: the untouched tenant, which carries no mask, and a
// fine-tuned one with a kept weight forced to exactly zero, whose mask bit a
// plan cannot keep. An Int8 engine, whose images are lossy, walks nothing.
func TestEngineDeltaMatchesModelDelta(t *testing.T) {
	nm := sparsity.NM{N: 2, M: 4}
	for _, f := range []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer} {
		base, clone, x, prune := tenantEnv(t, f)
		x1, x16 := batches(t, x)
		finetuned := clone()
		prune(finetuned, []int{1, 5})
		maskOnly := clone()
		for i, p := range maskOnly.Params() {
			if m := finetuned.Params()[i].Mask; m != nil {
				p.Mask = m.Clone()
			}
		}
		keptZero := clone()
		finetuned.CloneWeightsTo(keptZero)
		zeroOneKeptWeight(t, keptZero)

		tenants := []struct {
			name  string
			clf   *nn.Classifier
			exact bool
		}{{"fine-tuned", finetuned, true}, {"mask-only", maskOnly, true}, {"untouched", clone(), false}, {"kept-zero", keptZero, false}}
		for _, tc := range tenants {
			want, err := checkpoint.EncodeModelDelta(base, tc.clf)
			if err != nil {
				t.Fatal(err)
			}
			own, err := New(tc.clf, 4, nm)
			if err != nil {
				t.Fatal(err)
			}
			for src, eng := range map[string]*Engine{"OwnParams": own, "DeltaView": engineFromDelta(t, base, want, Float32)} {
				got, err := checkpoint.EncodeEngineDelta(base, eng)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", f, tc.name, src, err)
				}
				if tc.exact != bytes.Equal(got, want) {
					t.Fatalf("%s/%s/%s: derived delta equal to the classifier's: %v, want %v", f, tc.name, src, !tc.exact, tc.exact)
				}
				for _, prec := range []Precision{Float32, Int8} {
					ref, err := NewWithOptions(tc.clf, 4, nm, CompileOptions{Precision: prec})
					if err != nil {
						t.Fatal(err)
					}
					again := engineFromDelta(t, base, got, prec)
					if again.Fingerprint() != ref.Fingerprint() || again.QuantSignature() != ref.QuantSignature() {
						t.Fatalf("%s/%s/%s/%s: the derived delta compiles to fp %016x qsig %016x, the tenant to %016x / %016x",
							f, tc.name, src, prec, again.Fingerprint(), again.QuantSignature(), ref.Fingerprint(), ref.QuantSignature())
					}
					if !sameLogits(again.Logits(x1), ref.Logits(x1)) || !sameLogits(again.Logits(x16), ref.Logits(x16)) {
						t.Fatalf("%s/%s/%s/%s: logits from the derived delta differ from the tenant's", f, tc.name, src, prec)
					}
				}
			}
		}

		q, err := NewWithOptions(finetuned, 4, nm, CompileOptions{Precision: Int8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.EncodeEngineDelta(base, q); err == nil {
			t.Fatalf("%s: an int8 engine gave back a delta", f)
		}
	}
}

// zeroOneKeptWeight sets the first kept weight of clf's first masked
// parameter to exactly zero.
func zeroOneKeptWeight(t *testing.T, clf *nn.Classifier) {
	t.Helper()
	for _, p := range clf.Params() {
		if p.Mask == nil {
			continue
		}
		for i, m := range p.Mask.Data {
			if m != 0 && p.W.Data[i] != 0 {
				p.W.Data[i] = 0
				return
			}
		}
	}
	t.Fatal("no kept weight to zero")
}
