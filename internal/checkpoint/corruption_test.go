package checkpoint

// Systematic corruption suite for the checksummed formats. The contract the
// crc64 trailer buys (personalization v4, delta v3): ANY single flipped bit
// anywhere in the stream — header, counts, strings, raw float payload, the
// trailer itself — and any truncation must surface as a load error, never a
// panic and never a silently different model. Before the trailer, flips
// inside the f64 payload parsed cleanly and changed tenant logits.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/models"
)

// corruptionOffsets picks the byte offsets a corruption table exercises:
// every byte of the structured prefix, every byte around the trailer, and a
// systematic stride through the payload between them (full coverage would
// be n load attempts for an n-byte record; the stride keeps the suite fast
// while still hitting every region).
func corruptionOffsets(n int) []int {
	seen := make(map[int]bool)
	var offs []int
	add := func(i int) {
		if i >= 0 && i < n && !seen[i] {
			seen[i] = true
			offs = append(offs, i)
		}
	}
	for i := 0; i < 72; i++ {
		add(i)
	}
	for i := n - 24; i < n; i++ {
		add(i)
	}
	step := n / 192
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		add(i)
	}
	return offs
}

func TestPersonalizationBitFlipsFailClosed(t *testing.T) {
	src := prunedModel(31)
	var buf bytes.Buffer
	if err := SavePersonalization(&buf, testRecord(), src); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(32)), 4, 1)
	if _, err := LoadPersonalization(bytes.NewReader(valid), dst); err != nil {
		t.Fatalf("pristine record failed to load: %v", err)
	}

	for _, off := range corruptionOffsets(len(valid)) {
		for _, bit := range []uint{0, 7} {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("flip at byte %d bit %d: panic %v", off, bit, r)
					}
				}()
				if _, err := LoadPersonalization(bytes.NewReader(mut), dst); err == nil {
					t.Errorf("flip at byte %d bit %d of %d loaded without error", off, bit, len(valid))
				}
			}()
		}
	}
}

func TestPersonalizationTruncationsFailClosed(t *testing.T) {
	src := prunedModel(33)
	var buf bytes.Buffer
	if err := SavePersonalization(&buf, testRecord(), src); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(34)), 4, 1)

	for _, cut := range corruptionOffsets(len(valid)) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d: panic %v", cut, r)
				}
			}()
			if _, err := LoadPersonalization(bytes.NewReader(valid[:cut]), dst); err == nil {
				t.Errorf("truncation at %d/%d bytes loaded without error", cut, len(valid))
			}
		}()
	}
}

func TestDeltaBitFlipsFailClosed(t *testing.T) {
	base, tenant := deltaPair(t, models.ResNet)
	valid, err := EncodeModelDelta(base, tenant)
	if err != nil {
		t.Fatal(err)
	}
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(35)), 6, 1)
	if err := ApplyModelDelta(valid, base, dst); err != nil {
		t.Fatalf("pristine delta failed to apply: %v", err)
	}
	checkView(t, valid, base, dst, nil)

	for _, off := range corruptionOffsets(len(valid)) {
		for _, bit := range []uint{0, 7} {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("flip at byte %d bit %d: panic %v", off, bit, r)
					}
				}()
				err := ApplyModelDelta(mut, base, dst)
				if err == nil {
					t.Errorf("flip at byte %d bit %d of %d applied without error", off, bit, len(valid))
				}
				checkView(t, mut, base, dst, err)
			}()
		}
	}
}

func TestDeltaTruncationsFailClosed(t *testing.T) {
	base, tenant := deltaPair(t, models.ResNet)
	valid, err := EncodeModelDelta(base, tenant)
	if err != nil {
		t.Fatal(err)
	}
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(36)), 6, 1)

	for _, cut := range corruptionOffsets(len(valid)) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d: panic %v", cut, r)
				}
			}()
			err := ApplyModelDelta(valid[:cut], base, dst)
			if err == nil {
				t.Errorf("truncation at %d/%d bytes applied without error", cut, len(valid))
			}
			checkView(t, valid[:cut], base, dst, err)
		}()
	}
}

// TestLegacyDowngradeRejected: there is no reader for an earlier record to
// fall into. A v4 record whose version word reads 3 (the retired
// dense-classifier record) or 2 (the retired trailer-less one) is an
// unsupported-version error, not a load that skips the delta's bound or the
// checksum.
func TestLegacyDowngradeRejected(t *testing.T) {
	src := prunedModel(37)
	var buf bytes.Buffer
	if err := SavePersonalization(&buf, testRecord(), src); err != nil {
		t.Fatal(err)
	}
	dst := models.Build(models.ResNet, rand.New(rand.NewSource(38)), 4, 1)
	for _, v := range []byte{3, 2} {
		mut := append([]byte(nil), buf.Bytes()...)
		mut[4] = v // little-endian version word: 4 -> v
		want := fmt.Sprintf("unsupported version %d", v)
		_, err := LoadPersonalization(bytes.NewReader(mut), dst)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v4 record with its version word set to %d: got %v, want an unsupported-version error", v, err)
		}
		// The same record cut before its trailer, as a v2 record was.
		_, err = LoadPersonalization(bytes.NewReader(mut[:len(mut)-8]), dst)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("trailer-less record of version %d: got %v, want an unsupported-version error", v, err)
		}
	}
}
