package serve

import (
	"sync"
	"testing"

	"repro/internal/inference"
)

// int8Opts is quickOpts at Int8 precision.
func int8Opts() Options {
	opts := quickOpts()
	opts.Precision = inference.Int8
	return opts
}

// TestInt8ServerEndToEnd: an Int8 server personalizes, serves predictions
// through the quantized engines, and reports the precision and measured
// agreement telemetry.
func TestInt8ServerEndToEnd(t *testing.T) {
	s := newTestServer(t, int8Opts())
	p, cached, err := s.Personalize([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first personalization cannot be cached")
	}
	if p.Engine().Precision() != inference.Int8 {
		t.Fatalf("engine precision %v, want int8", p.Engine().Precision())
	}
	if p.Engine().QuantSignature() == 0 {
		t.Fatal("int8 engine has no quantized plans")
	}
	if p.Agreement <= 0 || p.Agreement > 1 {
		t.Fatalf("agreement %v outside (0, 1]", p.Agreement)
	}
	preds, _, _, err := s.PredictSamples([]int{1, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 8 {
		t.Fatalf("%d predictions, want 8", len(preds))
	}
	st := s.Stats()
	if st.Precision != "int8" {
		t.Fatalf("stats precision %q, want int8", st.Precision)
	}
	if st.AgreementSamples == 0 || st.AgreementMatches > st.AgreementSamples {
		t.Fatalf("agreement accounting: %d/%d", st.AgreementMatches, st.AgreementSamples)
	}
	if st.Top1Agreement != float64(st.AgreementMatches)/float64(st.AgreementSamples) {
		t.Fatalf("Top1Agreement %v inconsistent with %d/%d", st.Top1Agreement, st.AgreementMatches, st.AgreementSamples)
	}
	t.Logf("int8 top-1 agreement: %d/%d (%.1f%%)", st.AgreementMatches, st.AgreementSamples, 100*st.Top1Agreement)

	// A float server reports the trivial telemetry.
	fs := newTestServer(t, quickOpts())
	fp, _, err := fs.Personalize([]int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if fp.Agreement != 1 || fp.Engine().Precision() != inference.Float32 || fp.Engine().QuantSignature() != 0 {
		t.Fatalf("float personalization: agreement %v precision %v sig %x",
			fp.Agreement, fp.Engine().Precision(), fp.Engine().QuantSignature())
	}
	if fst := fs.Stats(); fst.Precision != "float32" || fst.AgreementSamples != 0 || fst.Top1Agreement != 1 {
		t.Fatalf("float server stats: %+v", fst)
	}
}

// TestInt8RestoreRequantizesDeterministically is the quantized half of the
// warm-restart contract: snapshot records persist float weights and masks
// only, so a restart re-quantizes from scratch — and must land on exactly
// the pre-restart codes (equal QuantSignatures) and therefore bit-identical
// quantized predictions.
func TestInt8RestoreRequantizesDeterministically(t *testing.T) {
	opts, _ := snapshotOpts(t)
	opts.Precision = inference.Int8
	env := sharedEnv()
	sets := [][]int{{1, 3}, {0, 2, 4}}

	s1 := newTestServer(t, opts)
	sigs := map[string]uint64{}
	logits := map[string][]float64{}
	agreements := map[string]float64{}
	for _, set := range sets {
		p, _, err := s1.Personalize(set)
		if err != nil {
			t.Fatal(err)
		}
		if sig := p.Engine().QuantSignature(); sig == 0 {
			t.Fatalf("set %v: no quantized plans", set)
		} else {
			sigs[p.Key] = sig
		}
		x := env.ds.MakeSplit("q-probe/"+p.Key, set, 2).X
		logits[p.Key] = append([]float64(nil), p.Engine().Logits(x).Data...)
		agreements[p.Key] = p.Agreement
	}
	if _, err := s1.Flush(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, opts)
	n, err := s2.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sets) {
		t.Fatalf("restored %d of %d", n, len(sets))
	}
	if st := s2.Stats(); st.Personalizations != 0 {
		t.Fatalf("restore ran %d pruning jobs", st.Personalizations)
	}
	for _, set := range sets {
		p, cached, err := s2.Personalize(set)
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("set %v not restored into the cache", set)
		}
		if got := p.Engine().QuantSignature(); got != sigs[p.Key] {
			t.Fatalf("set %v: re-quantization diverged: signature %x, pre-restart %x", set, got, sigs[p.Key])
		}
		if p.Agreement != agreements[p.Key] {
			t.Fatalf("set %v: restored agreement %v, pre-restart %v", set, p.Agreement, agreements[p.Key])
		}
		x := env.ds.MakeSplit("q-probe/"+p.Key, set, 2).X
		got := p.Engine().Logits(x).Data
		for j, v := range got {
			if v != logits[p.Key][j] {
				t.Fatalf("set %v logit %d diverged after requantizing restart: %v vs %v",
					set, j, v, logits[p.Key][j])
			}
		}
	}
}

// TestMixedPrecisionServingStorm is the -race hammer for precision
// coexistence: a Float32 server and an Int8 server run concurrently in one
// process — sharing the package-level kernel worker pool, request pools and
// arenas' sync.Pools — under mixed Personalize/Predict/Restore/Flush
// traffic with tiny caches (constant evictions). Afterwards the int8 side
// must still re-quantize deterministically: a third server restoring the
// int8 snapshot directory reproduces every engine's QuantSignature.
func TestMixedPrecisionServingStorm(t *testing.T) {
	fOpts, _ := snapshotOpts(t)
	fOpts.CacheSize = 2
	qOpts, qDir := snapshotOpts(t)
	qOpts.CacheSize = 2
	qOpts.Precision = inference.Int8
	fsrv := newTestServer(t, fOpts)
	qsrv := newTestServer(t, qOpts)

	sets := [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	const clients = 8 // even: half float, half int8
	const rounds = 3
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			s := fsrv
			if c%2 == 1 {
				s = qsrv
			}
			for r := 0; r < rounds; r++ {
				classes := sets[(c/2+r)%len(sets)]
				switch (c + r) % 4 {
				case 0:
					if _, _, err := s.Personalize(classes); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, _, _, err := s.PredictSamples(classes, 4); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := s.Restore(); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := s.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if _, err := qsrv.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every float engine stayed float, every int8 engine stayed quantized.
	if st := fsrv.Stats(); st.Precision != "float32" || st.AgreementSamples != 0 {
		t.Fatalf("float server stats after storm: %+v", st)
	}
	qst := qsrv.Stats()
	if qst.Precision != "int8" || qst.AgreementSamples == 0 {
		t.Fatalf("int8 server stats after storm: %+v", qst)
	}

	// Deterministic re-quantization survives the chaos: a fresh server on
	// the int8 snapshot dir reproduces the exact quantized state.
	restoreOpts := qOpts
	restoreOpts.SnapshotDir = qDir
	restoreOpts.CacheSize = len(sets)
	s3 := newTestServer(t, restoreOpts)
	if _, err := s3.Restore(); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, set := range sets {
		p1, _, err := qsrv.Personalize(set)
		if err != nil {
			t.Fatal(err)
		}
		p2, _, err := s3.Personalize(set)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := p1.Engine().QuantSignature(), p2.Engine().QuantSignature()
		if s1 == 0 || s2 == 0 {
			t.Fatalf("set %v: missing quantized plans (%x, %x)", set, s1, s2)
		}
		if s1 != s2 {
			t.Fatalf("set %v: quant signature %x before restart, %x after", set, s1, s2)
		}
		checked++
	}
	if checked != len(sets) {
		t.Fatalf("checked %d of %d sets", checked, len(sets))
	}
}
