package serve

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/inference"
	"repro/internal/pruner"
)

// engineID is everything two engines must agree on to be the same engine.
type engineID struct {
	fp, qsig uint64
	logits   []float64
}

func identify(s *Server, p *Personalization) engineID {
	x := tierX(s, p.Classes)
	return engineID{p.Engine().Fingerprint(), p.Engine().QuantSignature(), p.Engine().Logits(x).Data}
}

func (a engineID) equal(b engineID) bool {
	if a.fp != b.fp || a.qsig != b.qsig || len(a.logits) != len(b.logits) {
		return false
	}
	for i, v := range a.logits {
		if b.logits[i] != v {
			return false
		}
	}
	return true
}

// TestSnapshotFromDeltaRestoresIdenticalEngine: the server compiles every
// tenant from its delta, never from a classifier, so the reference here is
// the one thing it does not do: the tenant re-pruned on a private clone and
// compiled from that clone (inference.NewWithOptions). The served engine
// must be that engine — same fingerprint, quant signature and logits — and
// at Int8 its agreement must be that engine's top-1 agreement with the
// clone's Float32 engine on the held-out split. A snapshot record carries
// the served delta; a second server cold-restores it to the same engine, and
// so does a record written from the pruned clone's own delta by a store of
// its own.
func TestSnapshotFromDeltaRestoresIdenticalEngine(t *testing.T) {
	env := sharedEnv()
	classes := []int{1, 3}
	for _, prec := range []inference.Precision{inference.Float32, inference.Int8} {
		t.Run(prec.String(), func(t *testing.T) {
			opts, _ := snapshotOpts(t)
			opts.Precision = prec
			// Large enough that the int8 engine disagrees with the float one
			// somewhere, so the agreement check can tell the engines apart.
			opts.TestPerClass = 64
			s1 := newTestServer(t, opts)
			p1, _, err := s1.Personalize(classes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s1.Flush(); err != nil {
				t.Fatal(err)
			}
			want := identify(s1, p1)

			clone := env.build()
			env.base.CloneWeightsTo(clone)
			pruner.NewCRISP(s1.opts.Prune).Prune(clone, env.ds.MakeSplit("serve-train/"+p1.Key, classes, opts.TrainPerClass))
			bs, nm := s1.opts.Prune.BlockSize, s1.opts.Prune.NM
			ref, err := inference.NewWithOptions(clone, bs, nm, inference.CompileOptions{Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			x := tierX(s1, classes)
			if !want.equal(engineID{ref.Fingerprint(), ref.QuantSignature(), ref.Logits(x).Data}) {
				t.Fatal("the served engine is not the engine compiled from the pruned clone")
			}
			wantAgreement := 1.0
			if prec == inference.Int8 {
				f32, err := inference.New(clone, bs, nm)
				if err != nil {
					t.Fatal(err)
				}
				test := env.ds.MakeSplit("serve-test/"+p1.Key, classes, opts.TestPerClass)
				got, truth := ref.Predict(test.X), f32.Predict(test.X)
				matches := 0
				for i := range truth {
					if got[i] == truth[i] {
						matches++
					}
				}
				wantAgreement = float64(matches) / float64(len(truth))
			}
			if p1.Agreement != wantAgreement {
				t.Fatalf("agreement %v, want the clone's engines' %v", p1.Agreement, wantAgreement)
			}

			// The clone's own delta, into a directory of its own.
			legacy := opts
			legacy.SnapshotDir = t.TempDir()
			st, err := openStore(legacy.SnapshotDir, nil)
			if err != nil {
				t.Fatal(err)
			}
			cloneDelta, err := checkpoint.EncodeModelDelta(env.base, clone)
			if err != nil {
				t.Fatal(err)
			}
			rec := checkpoint.PersonalizationRecord{Key: p1.Key, Classes: p1.Classes, Accuracy: p1.Accuracy, Report: p1.Report}
			if err := st.put(rec, cloneDelta); err != nil {
				t.Fatal(err)
			}

			for name, o := range map[string]Options{"from the delta": opts, "from the clone": legacy} {
				s2 := newTestServer(t, o)
				p2, _, err := s2.Personalize(classes)
				if err != nil {
					t.Fatal(err)
				}
				if st := s2.Stats(); st.RestoreHits != 1 || st.Personalizations != 0 {
					t.Fatalf("record written %s was not cold-restored: %+v", name, st)
				}
				if !identify(s2, p2).equal(want) {
					t.Errorf("record written %s restored to a different engine", name)
				}
				d1, err := s1.deltaOf(p1)
				if err != nil {
					t.Fatal(err)
				}
				d2, err := s2.deltaOf(p2)
				if err != nil {
					t.Fatal(err)
				}
				if p2.Accuracy != p1.Accuracy || !bytes.Equal(d2, d1) {
					t.Errorf("record written %s restored a different accuracy or delta", name)
				}
			}
		})
	}
}

// TestDemotionDerivesTheDelta: a hot Float32 tenant holds no delta — its
// engine holds every value one would carry, and its resident size is the
// engine plus overhead — so demotion derives the warm record from the
// engine, and that record is the very delta the pruned clone encodes to (the
// tenant re-pruned here on a private clone of the base). An Int8 tenant on
// a server without a store keeps the delta it was compiled from, and
// demotion parks that slice without encoding. Either record is a fixed point of encode ∘ apply, so a
// tenant can cycle through the tiers (each promotion compiles it, each
// snapshot write stores it verbatim) without its bytes ever drifting.
func TestDemotionDerivesTheDelta(t *testing.T) {
	env := sharedEnv()
	for _, prec := range []inference.Precision{inference.Float32, inference.Int8} {
		t.Run(prec.String(), func(t *testing.T) {
			opts := quickOpts()
			opts.CacheSize = 1
			opts.MemoryBudgetBytes = 1 << 40
			opts.Precision = prec
			s := newTestServer(t, opts)
			classes := []int{1, 3}
			p, _, err := s.Personalize(classes)
			if err != nil {
				t.Fatal(err)
			}
			held := p.delta
			wantSize := p.engine.MemoryFootprint() + personalizationOverheadBytes
			if prec == inference.Float32 && held != nil {
				t.Fatal("a hot Float32 tenant holds a delta beside its engine")
			}
			if prec == inference.Int8 {
				if held == nil {
					t.Fatal("a hot Int8 tenant holds no delta: its engine cannot give one back")
				}
				wantSize += int64(len(held))
			}
			if p.size != wantSize {
				t.Fatalf("hot size %d, want engine + held delta + overhead = %d", p.size, wantSize)
			}
			if _, _, err := s.Personalize([]int{0, 2}); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			el := s.warm[p.Key]
			s.mu.Unlock()
			if el == nil {
				t.Fatalf("tenant %s was not demoted: %+v", p.Key, s.Stats())
			}
			we := el.Value.(*warmEntry)
			if held != nil && (len(we.delta) != len(held) || &we.delta[0] != &held[0]) {
				t.Fatal("the warm record is not the delta the hot Int8 tenant held")
			}

			clone := env.build()
			env.base.CloneWeightsTo(clone)
			pruner.NewCRISP(s.opts.Prune).Prune(clone, env.ds.MakeSplit("serve-train/"+p.Key, classes, opts.TrainPerClass))
			want, err := checkpoint.EncodeModelDelta(env.base, clone)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(we.delta, want) {
				t.Fatal("the warm record is not the delta the pruned clone encodes to")
			}

			rebuilt := env.build()
			if err := checkpoint.ApplyModelDelta(we.delta, env.base, rebuilt); err != nil {
				t.Fatal(err)
			}
			again, err := checkpoint.EncodeModelDelta(env.base, rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, we.delta) {
				t.Fatal("encode ∘ apply moved the delta")
			}
		})
	}
}
