package serve

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/inference"
	"repro/internal/models"
)

// TestRecordIsTheBenchmarksOracle: the benchmark checks a served tenant
// against the classifier its snapshot record loads into — a fresh,
// un-pretrained build of the architecture (bench/fixture.go loadReference,
// LoadPersonalization over build()). A record carries a delta and nothing
// of the universal model, so that build must become the tenant: at Float32
// its predictions are the served engine's and its logits bit-equal; at Int8
// an engine quantized from it carries the served QuantSignature.
func TestRecordIsTheBenchmarksOracle(t *testing.T) {
	for _, f := range []models.Family{models.ResNet, models.Transformer} {
		for _, prec := range []inference.Precision{inference.Float32, inference.Int8} {
			t.Run(string(f)+"/"+prec.String(), func(t *testing.T) {
				dir := t.TempDir()
				s := benchShapeServer(t, f, Options{SnapshotDir: dir, Precision: prec})
				classes := []int{0, 1, 3}
				p, _, err := s.Personalize(classes)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
				if err != nil {
					t.Fatal(err)
				}
				file, err := os.Open(filepath.Join(dir, idx[p.Key]))
				if err != nil {
					t.Fatal(err)
				}
				defer file.Close()
				loaded := s.build()
				if _, err := checkpoint.LoadPersonalization(file, loaded); err != nil {
					t.Fatal(err)
				}

				if prec == inference.Int8 {
					eng, err := inference.NewWithOptions(loaded, s.opts.Prune.BlockSize, s.opts.Prune.NM, inference.CompileOptions{Precision: inference.Int8})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := eng.QuantSignature(), p.Engine().QuantSignature(); got != want {
						t.Fatalf("quant signature %016x from the record, served %016x", got, want)
					}
					return
				}
				x := s.ds.MakeSplit("bench-b16/"+p.Key, classes, 6).X
				if !slices.Equal(loaded.Predict(x), p.Engine().Predict(x)) {
					t.Fatal("the record's classifier predicts otherwise than the served engine")
				}
				if !slices.Equal(loaded.Logits(x, false).Data, p.Engine().Logits(x).Data) {
					t.Fatal("the record's classifier's logits are not the served engine's")
				}
			})
		}
	}
}

// TestV3RecordCostsOneReprune: the dense-classifier record of the previous
// format has no reader. Found under a tenant's indexed name it fails at the
// header and is quarantined, and the tenant is pruned once more — to the
// tenant the oracle predicts, since pruning is deterministic in (universal
// model, class set) — and re-snapshotted in the current format.
func TestV3RecordCostsOneReprune(t *testing.T) {
	opts, dir := snapshotOpts(t)
	a := []int{3, 1}
	s1 := newTestServer(t, opts)
	p, _, err := s1.Personalize(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Flush(); err != nil {
		t.Fatal(err)
	}
	idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, idx[p.Key])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A v3 header over a body: the magic, version word 3, then what
	// followed the version word.
	binary.LittleEndian.PutUint32(raw[4:], 3)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, opts)
	p2, _, err := s2.Personalize(a)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.SnapshotsQuarantined != 1 || st.RestoreErrors != 1 || st.RestoreHits != 0 || st.Personalizations != 1 {
		t.Fatalf("a v3 record was not quarantined and re-pruned once: %+v", st)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("the v3 record was not moved aside: %v", err)
	}
	if got, want := p2.Engine().Fingerprint(), oracle(t, s2.opts.Prune, opts.TrainPerClass, a, inference.Float32).Fingerprint(); got != want {
		t.Fatalf("re-pruned engine %016x, the oracle's is %016x", got, want)
	}
	if _, err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, opts)
	if _, _, err := s3.Personalize(a); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.RestoreHits != 1 || st.Personalizations != 0 {
		t.Fatalf("the re-pruned tenant's record did not restore: %+v", st)
	}
}

// TestStoresOpenTogether: shards that open one snapshot directory at once
// each compact its index. Every open must succeed, and the index left behind
// must be whole and list every record.
func TestStoresOpenTogether(t *testing.T) {
	dir := t.TempDir()
	st, err := openStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"1,2", "3,4", "5"}
	for _, key := range keys {
		rec := checkpoint.PersonalizationRecord{Key: key, Classes: []int{1}, Accuracy: 0.5}
		if err := st.put(rec, crashDelta(t, false)); err != nil {
			t.Fatal(err)
		}
	}
	for range 50 {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = openStore(dir, nil)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("concurrent open: %v", err)
			}
		}
		idx, err := checkpoint.ReadIndex(filepath.Join(dir, checkpoint.IndexFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != len(keys) {
			t.Fatalf("index after concurrent opens lists %d records, want %d", len(idx), len(keys))
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("concurrent opens left temp files behind: %v", tmps)
	}
}
