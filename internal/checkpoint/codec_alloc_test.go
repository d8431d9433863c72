package checkpoint

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/inference"
	"repro/internal/models"
	"repro/internal/sparsity"
)

// TestCodecAllocsFollowParamCountNotSize is the guard that fails when the
// per-value cost comes back: each codec entry point allocates its chunk, its
// parameter and norm-stat lists and the record's own strings and slices —
// a count fixed by how many parameters the architecture has. Doubling the
// width multiplies the floats by ~4 and must not move a single count.
func TestCodecAllocsFollowParamCountNotSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, f := range []models.Family{models.ResNet, models.Transformer} {
		var counts [2]map[string]float64
		var walk float64 // listing one model's parameters and norm stats
		for i := range counts {
			base := models.Build(f, rand.New(rand.NewSource(60)), 6, i+1)
			tenant := randomTenant(f, i+1, base, 61)
			for _, p := range tenant.PrunableParams() {
				if p.Mask == nil {
					randomMask(rand.New(rand.NewSource(62)), p)
				}
			}
			delta, err := EncodeModelDelta(base, tenant)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := inference.New(tenant, 4, sparsity.NM{N: 2, M: 4})
			if err != nil {
				t.Fatal(err)
			}
			rec := testRecord()
			record := savedRecord(t, SavePersonalization, rec, tenant)
			dst := models.Build(f, rand.New(rand.NewSource(63)), 6, i+1)
			walk = testing.AllocsPerRun(5, func() { tenant.Params(); bnStats(tenant) })
			counts[i] = map[string]float64{
				"EncodeModelDelta": testing.AllocsPerRun(5, func() {
					if _, err := EncodeModelDelta(base, tenant); err != nil {
						t.Fatal(err)
					}
				}),
				"EncodeEngineDelta": testing.AllocsPerRun(5, func() {
					if _, err := EncodeEngineDelta(base, eng); err != nil {
						t.Fatal(err)
					}
				}),
				"ApplyModelDelta": testing.AllocsPerRun(5, func() {
					if err := ApplyModelDelta(delta, base, dst); err != nil {
						t.Fatal(err)
					}
				}),
				"ViewModelDelta": testing.AllocsPerRun(5, func() {
					if _, err := ViewModelDelta(delta, base); err != nil {
						t.Fatal(err)
					}
				}),
				"SavePersonalization": testing.AllocsPerRun(5, func() {
					if err := SavePersonalization(io.Discard, rec, tenant); err != nil {
						t.Fatal(err)
					}
				}),
				"LoadPersonalization": testing.AllocsPerRun(5, func() {
					if _, err := LoadPersonalization(bytes.NewReader(record), dst); err != nil {
						t.Fatal(err)
					}
				}),
			}
		}
		// Beyond the walks (a model's Params and its norm-stat list, each
		// one exactly sized slice): a delta encode allocates its source
		// list and the one buffer it sizes and writes the delta into (it
		// was a chunk, a bytes.Buffer and its backing array besides). The
		// engine source walks only base; in place of the tenant's walk it
		// adds its norm-stat list and the one visitor Engine.Walk takes (it
		// was two escaping callbacks and the two counters they shared) —
		// nothing per value. A view is the reader over the delta bytes, the
		// chunk, the view and its two entry slices (two maps, up to four
		// objects each, before). Apply is the view written back into dst, so
		// it costs the view plus a walk of dst, and the write-back takes its
		// base values from the view's entries instead of walking base a
		// second time. A record carries the delta: saving one is
		// EncodeModelDelta plus the record's chunk (it was walk + 1 while the
		// record held the dense classifier: 12 allocs on resnet-s, 6 on
		// transformer-s, now 7 and 5), and loading one is the record's
		// chunk, reader and metadata, a walk for the delta's length bound,
		// the delta's bytes, and Apply (it was walk + 2 + 7: 20 and 14, now
		// 16 and 12). The bounds are resnet-s's measurement; transformer-s
		// has no batch norm, so its norm-stat lists cost nothing.
		bounds := map[string]float64{
			"EncodeModelDelta":    2*walk + 2,
			"EncodeEngineDelta":   walk + 4,
			"ApplyModelDelta":     2*walk + 5,
			"ViewModelDelta":      walk + 5,
			"SavePersonalization": 2*walk + 3,
			"LoadPersonalization": 3*walk + 10,
		}
		for name, bound := range bounds {
			w1, w2 := counts[0][name], counts[1][name]
			t.Logf("%s %s: %v allocs at width 1, %v at width 2", f, name, w1, w2)
			if w1 != w2 {
				t.Errorf("%s %s: %v allocs at width 1 but %v at width 2 — the count follows the parameters' size", f, name, w1, w2)
			}
			if w1 > bound {
				t.Errorf("%s %s: %v allocs, want at most %v", f, name, w1, bound)
			}
		}
	}
}
