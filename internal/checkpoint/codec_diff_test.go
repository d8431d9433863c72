package checkpoint

// Differential tests: the chunked codec against the per-value reference in
// codec_ref_test.go. Both write the same wire formats, so these are
// equalities — same bytes out, and each side loads what the other wrote.

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/models"
	"repro/internal/nn"
)

var allFamilies = []models.Family{models.ResNet, models.VGG, models.MobileNet, models.Transformer}

// randomModel builds a classifier whose every stored field is seeded noise:
// weights, batch-norm running statistics (the transformer has none) and,
// when pruned, a random mask of random density on every prunable parameter
// — lengths that are not multiples of 8 included.
func randomModel(f models.Family, seed int64, pruned bool) *nn.Classifier {
	rng := rand.New(rand.NewSource(seed))
	clf := models.Build(f, rng, 6, 1)
	for _, s := range bnStats(clf) {
		for i := range s.mean {
			s.mean[i], s.variance[i] = rng.NormFloat64(), rng.Float64()+0.5
		}
	}
	if pruned {
		for _, p := range clf.PrunableParams() {
			randomMask(rng, p)
		}
	}
	return clf
}

func randomMask(rng *rand.Rand, p *nn.Param) {
	density := rng.Float64()
	m := p.EnsureMask()
	for i := range m.Data {
		m.Data[i] = 0
		if rng.Float64() < density {
			m.Data[i] = 1
		}
	}
}

// randomTenant clones base and diverges it parameter by parameter, so one
// delta carries every kind of entry: untouched, masked and untouched, masked
// with fine-tuned kept weights, densely changed; likewise the norm
// statistics.
func randomTenant(f models.Family, width int, base *nn.Classifier, seed int64) *nn.Classifier {
	rng := rand.New(rand.NewSource(seed))
	tenant := models.Build(f, rng, 6, width)
	base.CloneWeightsTo(tenant)
	for _, p := range tenant.Params() {
		switch choice := rng.Intn(4); {
		case choice == 0:
		case choice < 3 && p.Prunable:
			randomMask(rng, p)
			for i, m := range p.Mask.Data {
				if choice == 2 && m != 0 && rng.Intn(2) == 0 {
					p.W.Data[i] += rng.NormFloat64()
				}
			}
		default:
			p.W.Data[rng.Intn(p.W.Len())] += 0.5
		}
	}
	for _, s := range bnStats(tenant) {
		if rng.Intn(2) == 0 {
			s.variance[rng.Intn(len(s.variance))] += 0.25
		}
	}
	return tenant
}

func saved(t testing.TB, save func(io.Writer, *nn.Classifier) error, clf *nn.Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf, clf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func savedRecord(t testing.TB, save func(io.Writer, PersonalizationRecord, *nn.Classifier) error, rec PersonalizationRecord, clf *nn.Classifier) []byte {
	t.Helper()
	return saved(t, func(w io.Writer, c *nn.Classifier) error { return save(w, rec, c) }, clf)
}

// TestEncodersMatchReference: SavePersonalization and EncodeModelDelta
// write the reference writer's bytes on every family,
// pruned and unpruned, with and without batch-norm.
func TestEncodersMatchReference(t *testing.T) {
	for _, f := range allFamilies {
		for _, pruned := range []bool{false, true} {
			clf := randomModel(f, 40, pruned)
			rec := testRecord()
			if got, want := savedRecord(t, SavePersonalization, rec, clf), savedRecord(t, refSavePersonalization, rec, clf); !bytes.Equal(got, want) {
				t.Errorf("%s pruned=%v: SavePersonalization wrote %d bytes that differ from the reference's %d", f, pruned, len(got), len(want))
			}
			for seed := int64(0); seed < 4; seed++ {
				tenant := randomTenant(f, 1, clf, 50+seed)
				got, err := EncodeModelDelta(clf, tenant)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refEncodeModelDelta(clf, tenant)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s pruned=%v tenant %d: delta of %d bytes differs from the reference's %d", f, pruned, seed, len(got), len(want))
				}
				if cap(got) != len(got) {
					t.Errorf("%s pruned=%v tenant %d: delta buffer sized %d for %d bytes", f, pruned, seed, cap(got), len(got))
				}
			}
		}
	}
}

// TestRecordsCrossLoad: what the reference (the parent commit's codec)
// wrote loads on the chunked reader and the other way round, to the same
// model and metadata.
func TestRecordsCrossLoad(t *testing.T) {
	for _, f := range allFamilies {
		src := randomModel(f, 41, true)
		rec := testRecord()
		fresh := func() *nn.Classifier { return models.Build(f, rand.New(rand.NewSource(1)), 6, 1) }

		// A record carries no pruned position, so each loader leaves its
		// destination's own values there: two fresh models of one seed come
		// out equal, and equal to src wherever a loader reads.
		a := fresh()
		got, err := LoadPersonalization(bytes.NewReader(savedRecord(t, refSavePersonalization, rec, src)), a)
		if err != nil {
			t.Fatalf("%s: LoadPersonalization of a reference record: %v", f, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: LoadPersonalization of a reference record restored different metadata", f)
		}
		checkRebuilt(t, src, a)
		b := fresh()
		got, err = refLoadPersonalization(bytes.NewReader(savedRecord(t, SavePersonalization, rec, src)), b)
		if err != nil {
			t.Fatalf("%s: reference load of a SavePersonalization record: %v", f, err)
		}
		if !reflect.DeepEqual(got, rec) || !bytes.Equal(saved(t, refSave, a), saved(t, refSave, b)) {
			t.Errorf("%s: reference load of a SavePersonalization record restored different state", f)
		}

		tenant := randomTenant(f, 1, src, 42)
		delta, err := EncodeModelDelta(src, tenant)
		if err != nil {
			t.Fatal(err)
		}
		a, b = fresh(), fresh()
		if err := ApplyModelDelta(delta, src, a); err != nil {
			t.Fatalf("%s: apply: %v", f, err)
		}
		if err := refApplyModelDelta(delta, src, b); err != nil {
			t.Fatalf("%s: reference apply: %v", f, err)
		}
		if !bytes.Equal(saved(t, refSave, a), saved(t, refSave, b)) {
			t.Errorf("%s: ApplyModelDelta and the reference rebuilt different models", f)
		}
		checkRebuilt(t, tenant, a)
	}
}

// checkRebuilt holds a model rebuilt from a delta to the tenant it encodes:
// masks, norm statistics and every kept weight bit for bit, every pruned
// position masked (its raw value legally reverts to the base's).
func checkRebuilt(t testing.TB, tenant, got *nn.Classifier) {
	t.Helper()
	gp := got.Params()
	for i, p := range tenant.Params() {
		g := gp[i]
		if (p.Mask == nil) != (g.Mask == nil) {
			t.Fatalf("%s: mask presence diverged", p.Name)
		}
		for j, w := range p.W.Data {
			if p.Mask != nil && p.Mask.Data[j] != g.Mask.Data[j] {
				t.Fatalf("%s[%d]: mask %v, want %v", p.Name, j, g.Mask.Data[j], p.Mask.Data[j])
			}
			if (p.Mask == nil || p.Mask.Data[j] != 0) && math.Float64bits(g.W.Data[j]) != math.Float64bits(w) {
				t.Fatalf("%s[%d]: weight %v, want %v", p.Name, j, g.W.Data[j], w)
			}
		}
	}
	gs := bnStats(got)
	for i, s := range bnStats(tenant) {
		if !reflect.DeepEqual(s, gs[i]) {
			t.Fatalf("norm stat %s diverged", s.name)
		}
	}
}

// TestLoadersReadExactlyTheirRecord: no read-ahead. A record followed by
// other bytes in the same stream leaves exactly those bytes unread, however
// the reader fragments its reads — the record's delta is read by its
// declared length, in one piece. (The record here is 172 775 bytes, the
// delta of a randomly masked resnet-s; it was 355 655 while it held the
// dense classifier.)
func TestLoadersReadExactlyTheirRecord(t *testing.T) {
	src := randomModel(models.ResNet, 43, true)
	const tail = "next record"
	wrappers := map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"halves":  iotest.HalfReader,
		"onebyte": iotest.OneByteReader,
	}
	for name, wrap := range wrappers {
		dst := models.Build(models.ResNet, rand.New(rand.NewSource(2)), 6, 1)
		r := bytes.NewReader(append(savedRecord(t, SavePersonalization, testRecord(), src), tail...))
		if _, err := LoadPersonalization(wrap(r), dst); err != nil {
			t.Fatalf("%s: LoadPersonalization: %v", name, err)
		}
		if r.Len() != len(tail) {
			t.Errorf("%s: LoadPersonalization left %d bytes unread, want %d", name, r.Len(), len(tail))
		}
		r = bytes.NewReader(append(savedRecord(t, SavePersonalization, testRecord(), src), tail...))
		if _, _, err := ReadPersonalization(wrap(r), dst); err != nil {
			t.Fatalf("%s: ReadPersonalization: %v", name, err)
		}
		if r.Len() != len(tail) {
			t.Errorf("%s: ReadPersonalization left %d bytes unread, want %d", name, r.Len(), len(tail))
		}
	}
}

// TestStringsLongerThanTheChunk: a key that does not fit the scratch is
// written in pieces and read back whole.
func TestStringsLongerThanTheChunk(t *testing.T) {
	src := randomModel(models.Transformer, 44, false)
	rec := testRecord()
	rec.Key = strings.Repeat("0123456789,", 1000)
	got := savedRecord(t, SavePersonalization, rec, src)
	if !bytes.Equal(got, savedRecord(t, refSavePersonalization, rec, src)) {
		t.Fatal("record with an 11 KB key differs from the reference's")
	}
	dst := models.Build(models.Transformer, rand.New(rand.NewSource(3)), 6, 1)
	back, err := LoadPersonalization(bytes.NewReader(got), dst)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key != rec.Key {
		t.Fatal("11 KB key did not survive the round trip")
	}
}

// FuzzModelDelta: for random masks, weights and norm statistics the encoder
// writes the reference's bytes and apply∘encode reproduces the tenant; a
// flipped bit or a truncation either fails or still decodes to that tenant.
// Apply is the delta view written back, so the two cannot disagree; every
// input is held to the per-value reference apply instead (checkApplyRef).
func FuzzModelDelta(f *testing.F) {
	f.Add(int64(1), int64(2), uint32(0), uint8(0))
	f.Add(int64(3), int64(4), uint32(9), uint8(3))      // #params word
	f.Add(int64(5), int64(6), uint32(4000), uint8(7))   // payload
	f.Add(int64(7), int64(8), uint32(1<<31), uint8(1))  // wraps into the record
	f.Add(int64(-9), int64(0), ^uint32(0), uint8(0xFF)) // last trailer byte
	f.Fuzz(func(t *testing.T, baseSeed, tenantSeed int64, off uint32, bit uint8) {
		fam := allFamilies[uint64(baseSeed)%uint64(len(allFamilies))]
		base := randomModel(fam, baseSeed, false)
		tenant := randomTenant(fam, 1, base, tenantSeed)
		delta, err := EncodeModelDelta(base, tenant)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refEncodeModelDelta(base, tenant)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(delta, want) {
			t.Fatalf("%s: delta of %d bytes differs from the reference's %d", fam, len(delta), len(want))
		}
		dst, err := checkApplyRef(t, fam, delta, base)
		if err != nil {
			t.Fatal(err)
		}
		checkRebuilt(t, tenant, dst)
		checkView(t, delta, base, dst, nil)

		at := int(off % uint32(len(delta)))
		mut := append([]byte(nil), delta...)
		mut[at] ^= 1 << (bit % 8)
		if dst, err := checkApplyRef(t, fam, mut, base); err == nil {
			checkRebuilt(t, tenant, dst)
		}
		if _, err := checkApplyRef(t, fam, delta[:at], base); err == nil {
			t.Fatalf("%s: delta truncated to %d of %d bytes applied", fam, at, len(delta))
		}
	})
}

// checkApplyRef applies delta with ApplyModelDelta and with the per-value
// reference, each into a fresh model of family f: both must accept or both
// reject, and where both accept they must rebuild the same model, byte for
// byte. It returns ApplyModelDelta's model and error.
func checkApplyRef(t testing.TB, f models.Family, delta []byte, base *nn.Classifier) (*nn.Classifier, error) {
	t.Helper()
	got, ref := models.Build(f, rand.New(rand.NewSource(1)), 6, 1), models.Build(f, rand.New(rand.NewSource(1)), 6, 1)
	err, refErr := ApplyModelDelta(delta, base, got), refApplyModelDelta(delta, base, ref)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: apply and the reference disagree on a %d-byte delta: apply %v, reference %v", f, len(delta), err, refErr)
	}
	if err == nil && !bytes.Equal(saved(t, refSave, got), saved(t, refSave, ref)) {
		t.Fatalf("%s: apply and the reference rebuilt different models from a %d-byte delta", f, len(delta))
	}
	return got, err
}
