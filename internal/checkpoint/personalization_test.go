package checkpoint

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/pruner"
)

// prunedModel builds a small classifier with non-trivial weights and a
// mask on every prunable parameter, so a record round trip exercises both
// payload kinds.
func prunedModel(seed int64) *nn.Classifier {
	clf := models.Build(models.ResNet, rand.New(rand.NewSource(seed)), 4, 1)
	for i, p := range clf.PrunableParams() {
		m := p.EnsureMask()
		for j := range m.Data {
			if (i+j)%3 == 0 {
				m.Data[j] = 0
			} else {
				m.Data[j] = 1
			}
		}
	}
	return clf
}

func testRecord() PersonalizationRecord {
	return PersonalizationRecord{
		Key:      "1,3",
		Classes:  []int{1, 3},
		Accuracy: 0.875,
		Report: pruner.Report{
			Method:           "crisp",
			Target:           0.7,
			AchievedSparsity: 0.7125,
			FLOPsRatio:       0.41,
			Layers: []pruner.LayerStat{
				{Name: "conv1.w", Rows: 16, Cols: 27, Sparsity: 0.5, KeptBlockCols: 3, GridCols: 7},
				// −1 marks block-exempt layers; the signed field must survive.
				{Name: "head.w", Rows: 4, Cols: 16, Sparsity: 0.75, KeptBlockCols: -1, GridCols: 4},
			},
			Iterations: []pruner.IterStat{
				{Iteration: 0, Kappa: 0.6, Sparsity: 0.61, Loss: 1.2},
				{Iteration: 1, Kappa: 0.7, Sparsity: 0.71, Loss: 0.9},
			},
		},
	}
}

func TestPersonalizationRoundTrip(t *testing.T) {
	src := prunedModel(7)
	rec := testRecord()
	var buf bytes.Buffer
	if err := SavePersonalization(&buf, rec, src); err != nil {
		t.Fatal(err)
	}

	dst := models.Build(models.ResNet, rand.New(rand.NewSource(8)), 4, 1)
	got, err := LoadPersonalization(bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record diverged:\ngot  %+v\nwant %+v", got, rec)
	}

	// Masks, kept and unmasked weights and norm statistics bit for bit; a
	// record stores no pruned position, so dst keeps its own values there.
	checkRebuilt(t, src, dst)
}

// TestVersionsDoNotCrossLoad pins the compatibility contract: a v4 record
// loads, and no other version word in its place does — 1 (the retired
// whole-classifier stream) and 3 (the dense-classifier record) included.
func TestVersionsDoNotCrossLoad(t *testing.T) {
	clf := prunedModel(9)
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(10)), 4, 1)

	var v4 bytes.Buffer
	if err := SavePersonalization(&v4, testRecord(), clf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPersonalization(bytes.NewReader(v4.Bytes()), dst); err != nil {
		t.Fatalf("v4 record no longer loads: %v", err)
	}
	// Versions 0, 1, 2, 3 (the dense-classifier record) and 5 in a record's
	// version word: none loads.
	for _, v := range []byte{0, 1, 2, 3, 5} {
		mut := append([]byte(nil), v4.Bytes()...)
		mut[4] = v
		if _, err := LoadPersonalization(bytes.NewReader(mut), dst); err == nil {
			t.Fatalf("LoadPersonalization accepted version %d", v)
		}
	}
}

// TestPersonalizationFailsClosed truncates and corrupts a valid record at
// many offsets: every mutation must produce an error, never a panic.
func TestPersonalizationFailsClosed(t *testing.T) {
	clf := prunedModel(11)
	var buf bytes.Buffer
	if err := SavePersonalization(&buf, testRecord(), clf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// A load that fails leaves dst untouched, so one destination model
	// serves every mutation below.
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(12)), 4, 1)
	for cut := 0; cut < len(valid); cut += 31 {
		if _, err := LoadPersonalization(bytes.NewReader(valid[:cut]), dst); err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded without error", cut, len(valid))
		}
	}

	// Flipping bytes anywhere must error, never panic: the crc64 trailer
	// catches flips even inside the f64 payload (the exhaustive sweep lives
	// in corruption_test.go; this is the quick structured-prefix pass).
	for off := 4; off < 60 && off < len(valid); off++ {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xFF
		if _, err := LoadPersonalization(bytes.NewReader(mut), dst); err == nil {
			t.Fatalf("byte flip at %d loaded without error", off)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), IndexFile)

	idx, err := ReadIndex(path)
	if err != nil {
		t.Fatalf("missing index must read as empty, got %v", err)
	}
	if len(idx) != 0 {
		t.Fatalf("missing index not empty: %v", idx)
	}

	idx = Index{"1,3": "p01.ckpt", "0,2,4": "p02.ckpt"}
	if err := WriteIndexFS(fault.OS{}, path, idx); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, idx) {
		t.Fatalf("index round trip: got %v want %v", got, idx)
	}

	// Overwrite replaces atomically (no merge with the old content).
	idx2 := Index{"5": "p03.ckpt"}
	if err := WriteIndexFS(fault.OS{}, path, idx2); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadIndex(path); !reflect.DeepEqual(got, idx2) {
		t.Fatalf("overwrite: got %v want %v", got, idx2)
	}
}

// TestIndexConcurrentRewrites: stores sharing a directory rewrite its index
// at once (compaction on open, de-indexing in quarantine). Every rewrite
// must succeed, and the file left behind must be one writer's index, whole.
func TestIndexConcurrentRewrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, IndexFile)
	idxs := []Index{
		{"1,3": "p01.ckpt", "0,2,4": "p02.ckpt"},
		{"5": "p03.ckpt", "6,7": "p04.ckpt", "8": "p05.ckpt"},
	}
	for range 100 {
		var wg sync.WaitGroup
		errs := make([]error, len(idxs))
		for i, idx := range idxs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = WriteIndexFS(fault.OS{}, path, idx)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("concurrent rewrite: %v", err)
			}
		}
		got, err := ReadIndex(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, idxs[0]) && !reflect.DeepEqual(got, idxs[1]) {
			t.Fatalf("concurrent rewrites left %v, which is neither writer's index", got)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("rewrites left temp files behind: %v", tmps)
	}
}

// TestIndexJournal pins the append-mode semantics: O(1) appends, header on
// first write, last-entry-wins for duplicate keys, a torn final line is
// dropped at every cut (the header's too), and a malformed interior line is
// still an error.
func TestIndexJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), IndexFile)
	for _, e := range [][2]string{{"1,3", "a.ckpt"}, {"2", "b.ckpt"}, {"1,3", "c.ckpt"}} {
		if err := AppendIndexFS(fault.OS{}, path, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Index{"1,3": "c.ckpt", "2": "b.ckpt"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("journal read %v, want %v", got, want)
	}

	if err := AppendIndexFS(fault.OS{}, path, "bad\tkey", "x"); err == nil {
		t.Fatal("tab in key must be rejected")
	}

	// A crash mid-append leaves a partial final line: drop it, keep the rest.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("4,9"); err != nil { // no tab, no newline
		t.Fatal(err)
	}
	f.Close()
	if got, err = ReadIndex(path); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("torn tail not dropped: %v, %v", got, err)
	}

	// The same malformed content mid-file is corruption, not a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(raw, "\n5\tok.ckpt\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(path); err == nil {
		t.Fatal("malformed interior line must be an error")
	}

	if _, err := ReadIndex(filepath.Join(t.TempDir(), "garbage")); err != nil {
		t.Fatalf("missing path: %v", err)
	}
	bad := filepath.Join(t.TempDir(), IndexFile)
	if err := os.WriteFile(bad, []byte("not an index\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bad); err == nil {
		t.Fatal("wrong header must be an error")
	}

	// A crash can tear any append, the first one's header included: every
	// proper prefix of a one-entry journal is the empty index — not "not a
	// snapshot index", not an entry with a truncated filename.
	const journal = indexHeader + "\n0,1\tp00.ckpt\n"
	for cut := 0; cut <= len(journal); cut++ {
		if err := os.WriteFile(bad, []byte(journal[:cut]), 0o644); err != nil {
			t.Fatal(err)
		}
		want := Index{}
		if cut == len(journal) {
			want = Index{"0,1": "p00.ckpt"}
		}
		if got, err := ReadIndex(bad); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix %q read as %v (%v), want %v", journal[:cut], got, err, want)
		}
	}
}
