package checkpoint

// The per-value codec every format in this package used before the chunked
// one (codec.go), kept as the test-only oracle: one Write / Read and one
// hash call per field, a heap-allocated scratch per value. It follows the
// formats as they change — the v5 personalization record that carries a
// delta under a fixed-size header, the v3 delta without a "same" mode — but not the chunking. The
// differential tests (codec_diff_test.go) hold the new encoders to these
// bytes and check that each side loads what the other wrote.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"math"

	"repro/internal/nn"
)

// refSave writes every bit of a classifier, one value at a time: each
// parameter's name, shape, weights and mask, then each norm statistic. It
// is the tests' fingerprint of a model: two models are the same model
// exactly when their refSave bytes are equal.
func refSave(w io.Writer, clf *nn.Classifier) error {
	bw := &errWriter{w: w}
	params := clf.Params()
	bw.u32(uint32(len(params)))
	for _, p := range params {
		bw.str(p.Name)
		bw.u32(uint32(len(p.W.Shape)))
		for _, d := range p.W.Shape {
			bw.u32(uint32(d))
		}
		for _, v := range p.W.Data {
			bw.f64(v)
		}
		if p.Mask == nil {
			bw.bytes([]byte{0})
		} else {
			bw.bytes([]byte{1})
			bw.bytes(packBits(p.Mask.Data))
		}
	}

	stats := bnStats(clf)
	bw.u32(uint32(len(stats)))
	for _, s := range stats {
		bw.str(s.name)
		bw.u32(uint32(len(s.mean)))
		for _, v := range s.mean {
			bw.f64(v)
		}
		for _, v := range s.variance {
			bw.f64(v)
		}
	}
	return bw.err
}

// packBits packs a {0,1} float slice into bytes, LSB first.
func packBits(vals []float64) []byte {
	out := make([]byte, (len(vals)+7)/8)
	for i, v := range vals {
		if v != 0 {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// unpackBits expands packed bytes into a {0,1} float slice.
func unpackBits(bits []byte, dst []float64) {
	for i := range dst {
		if bits[i/8]&(1<<(i%8)) != 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// errWriter accumulates the first write error. When crc is set, every byte
// written also feeds it — checksummed formats (personalization records, deltas)
// point it at a crc64 and emit the sum as a trailer.
type errWriter struct {
	w   io.Writer
	crc hash.Hash64
	err error
}

func (e *errWriter) bytes(b []byte) {
	if e.err != nil {
		return
	}
	if _, e.err = e.w.Write(b); e.err == nil && e.crc != nil {
		e.crc.Write(b)
	}
}

func (e *errWriter) u32(v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	e.bytes(buf[:])
}

func (e *errWriter) f64(v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	e.bytes(buf[:])
}

func (e *errWriter) str(s string) {
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

// i32 writes a signed 32-bit value (two's complement in the u32 slot).
func (e *errWriter) i32(v int32) { e.u32(uint32(v)) }

func (e *errWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	e.bytes(buf[:])
}

// errReader accumulates the first read error. Like errWriter, a non-nil
// crc sees every byte read, so checksum verification costs no second pass.
type errReader struct {
	r   io.Reader
	crc hash.Hash64
	err error
}

func (e *errReader) bytes(n int) []byte {
	if e.err != nil {
		return nil
	}
	if n < 0 || n > 1<<30 {
		e.err = errors.New("checkpoint: implausible field length")
		return nil
	}
	buf := make([]byte, n)
	if _, e.err = io.ReadFull(e.r, buf); e.err == nil && e.crc != nil {
		e.crc.Write(buf)
	}
	return buf
}

func (e *errReader) u32() uint32 {
	b := e.bytes(4)
	if e.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (e *errReader) f64() float64 {
	b := e.bytes(8)
	if e.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// i32 reads a signed 32-bit value written by errWriter.i32.
func (e *errReader) i32() int32 { return int32(e.u32()) }

func (e *errReader) u64() uint64 {
	b := e.bytes(8)
	if e.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (e *errReader) str() string {
	n := e.u32()
	if e.err != nil {
		return ""
	}
	if n > 1<<20 {
		e.err = errors.New("checkpoint: implausible string length")
		return ""
	}
	return string(e.bytes(int(n)))
}

func refSavePersonalization(w io.Writer, rec PersonalizationRecord, clf *nn.Classifier) error {
	bw := &errWriter{w: w}
	bw.bytes([]byte(magic))
	bw.u32(personalizationVersion)
	bw.crc = crc64.New(crcTable)

	bw.str(rec.Key)
	bw.u32(uint32(len(rec.Classes)))
	for _, c := range rec.Classes {
		bw.u32(uint32(c))
	}
	bw.f64(rec.Accuracy)

	bw.f64(rec.Report.AchievedSparsity)
	bw.f64(rec.Report.FLOPsRatio)

	delta, err := refEncodeModelDelta(clf, clf)
	if err != nil {
		return err
	}
	bw.u32(uint32(len(delta)))
	bw.bytes(delta)
	var sum uint64
	if bw.err == nil {
		sum = bw.crc.Sum64()
	}
	bw.crc = nil // the trailer itself is not part of the sum
	bw.u64(sum)
	return bw.err
}

func refLoadPersonalization(r io.Reader, clf *nn.Classifier) (PersonalizationRecord, error) {
	var rec PersonalizationRecord
	br := &errReader{r: r}
	head := br.bytes(4)
	if br.err != nil {
		return rec, br.err
	}
	if string(head) != magic {
		return rec, fmt.Errorf("checkpoint: bad magic %q", head)
	}
	if v := br.u32(); br.err == nil && v != personalizationVersion {
		return rec, fmt.Errorf("checkpoint: unsupported personalization version %d (want %d)", v, personalizationVersion)
	}
	br.crc = crc64.New(crcTable)

	rec.Key = br.str()
	nc := int(br.u32())
	if br.err != nil {
		return rec, br.err
	}
	if nc <= 0 || nc > maxCount {
		return rec, fmt.Errorf("checkpoint: implausible class count %d", nc)
	}
	rec.Classes = make([]int, nc)
	for i := range rec.Classes {
		rec.Classes[i] = int(br.u32())
	}
	rec.Accuracy = br.f64()

	rec.Report.AchievedSparsity = br.f64()
	rec.Report.FLOPsRatio = br.f64()

	delta := br.bytes(int(br.u32()))
	sum := br.crc.Sum64()
	br.crc = nil
	want := br.u64()
	if br.err != nil {
		return rec, br.err
	}
	if sum != want {
		return rec, fmt.Errorf("checkpoint: personalization record checksum mismatch (stored %016x, computed %016x)", want, sum)
	}
	return rec, refApplyModelDelta(delta, clf, clf)
}

func refEncodeModelDelta(base, tenant *nn.Classifier) ([]byte, error) {
	bp, tp := base.Params(), tenant.Params()
	if len(bp) != len(tp) {
		return nil, fmt.Errorf("checkpoint: delta across architectures: %d vs %d params", len(bp), len(tp))
	}
	var buf bytes.Buffer
	bw := &errWriter{w: &buf}
	bw.bytes([]byte(deltaMagic))
	bw.u32(deltaVersion)
	bw.crc = crc64.New(crcTable)
	bw.u32(uint32(len(tp)))
	for i, p := range tp {
		b := bp[i]
		if p.Name != b.Name || p.W.Len() != b.W.Len() {
			return nil, fmt.Errorf("checkpoint: delta param %d: %q/%d vs base %q/%d", i, p.Name, p.W.Len(), b.Name, b.W.Len())
		}
		bw.str(p.Name)
		if p.Mask == nil {
			bw.bytes([]byte{0})
			for _, v := range p.W.Data {
				bw.f64(v)
			}
			continue
		}
		bw.bytes([]byte{1})
		bw.bytes(packBits(p.Mask.Data))
		kept := 0
		for _, m := range p.Mask.Data {
			if m != 0 {
				kept++
			}
		}
		bw.u32(uint32(kept))
		for j, m := range p.Mask.Data {
			if m != 0 {
				bw.f64(p.W.Data[j])
			}
		}
	}

	bs, ts := bnStats(base), bnStats(tenant)
	if len(bs) != len(ts) {
		return nil, fmt.Errorf("checkpoint: delta norm stats: %d vs base %d", len(ts), len(bs))
	}
	bw.u32(uint32(len(ts)))
	for i, s := range ts {
		if s.name != bs[i].name || len(s.mean) != len(bs[i].mean) {
			return nil, fmt.Errorf("checkpoint: delta norm stat %d: %q vs base %q", i, s.name, bs[i].name)
		}
		bw.str(s.name)
		for _, v := range s.mean {
			bw.f64(v)
		}
		for _, v := range s.variance {
			bw.f64(v)
		}
	}
	sum := uint64(0)
	if bw.err == nil {
		sum = bw.crc.Sum64()
	}
	bw.crc = nil
	bw.u64(sum)
	if bw.err != nil {
		return nil, bw.err
	}
	return buf.Bytes(), nil
}

func refApplyModelDelta(delta []byte, base, dst *nn.Classifier) error {
	br := &errReader{r: bytes.NewReader(delta)}
	head := br.bytes(4)
	if br.err != nil {
		return br.err
	}
	if string(head) != deltaMagic {
		return fmt.Errorf("checkpoint: delta: bad magic %q", head)
	}
	if v := br.u32(); v != deltaVersion {
		return fmt.Errorf("checkpoint: delta: unsupported version %d (want %d)", v, deltaVersion)
	}
	br.crc = crc64.New(crcTable)
	bp, dp := base.Params(), dst.Params()
	if len(bp) != len(dp) {
		return fmt.Errorf("checkpoint: delta across architectures: %d vs %d params", len(bp), len(dp))
	}
	n := int(br.u32())
	if br.err != nil {
		return br.err
	}
	if n != len(dp) {
		return fmt.Errorf("checkpoint: delta stores %d params, model has %d", n, len(dp))
	}
	for i, p := range dp {
		b := bp[i]
		if p.W.Len() != b.W.Len() {
			return fmt.Errorf("checkpoint: delta param %q: dst/base shapes differ", p.Name)
		}
		name := br.str()
		if br.err != nil {
			return br.err
		}
		if name != p.Name {
			return fmt.Errorf("checkpoint: delta param %q does not match model param %q", name, p.Name)
		}
		hasMask := br.bytes(1)
		if br.err != nil {
			return br.err
		}
		if hasMask[0] == 1 {
			bits := br.bytes((p.W.Len() + 7) / 8)
			if br.err != nil {
				return br.err
			}
			unpackBits(bits, p.EnsureMask().Data)
		} else {
			p.ClearMask()
		}
		if p.Mask == nil {
			for j := range p.W.Data {
				p.W.Data[j] = br.f64()
			}
		} else {
			copy(p.W.Data, b.W.Data)
			count := int(br.u32())
			kept := 0
			for _, m := range p.Mask.Data {
				if m != 0 {
					kept++
				}
			}
			if br.err == nil && count != kept {
				return fmt.Errorf("checkpoint: delta param %q: %d stored values for %d kept positions", name, count, kept)
			}
			for j, m := range p.Mask.Data {
				if m != 0 {
					p.W.Data[j] = br.f64()
				}
			}
		}
		if br.err != nil {
			return br.err
		}
	}

	bs, ds := bnStats(base), bnStats(dst)
	if len(bs) != len(ds) {
		return fmt.Errorf("checkpoint: delta norm stats: base %d vs dst %d", len(bs), len(ds))
	}
	ns := int(br.u32())
	if br.err != nil {
		return br.err
	}
	if ns != len(ds) {
		return fmt.Errorf("checkpoint: delta stores %d norm stats, model has %d", ns, len(ds))
	}
	for i, s := range ds {
		name := br.str()
		if name != s.name {
			return fmt.Errorf("checkpoint: delta norm stat %q does not match %q", name, s.name)
		}
		if len(s.mean) != len(bs[i].mean) {
			return fmt.Errorf("checkpoint: delta norm stat %q: dst/base lengths differ", name)
		}
		for j := range s.mean {
			s.mean[j] = br.f64()
		}
		for j := range s.variance {
			s.variance[j] = br.f64()
		}
	}
	if br.err != nil {
		return br.err
	}
	sum := br.crc.Sum64()
	br.crc = nil
	want := br.u64()
	if br.err != nil {
		return br.err
	}
	if sum != want {
		return fmt.Errorf("checkpoint: delta checksum mismatch (stored %016x, computed %016x)", want, sum)
	}
	return nil
}
