package checkpoint

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
)

// chunk is the codec's scratch size: one per enc writing to an io.Writer or
// dec, so one per Apply/Write/Read call, owned by that call (package
// comment). A delta encoder knows its output's size and writes straight
// into it instead.
const chunk = 4096

// crcTable is the CRC-64/ECMA table checksummed streams use; the sum
// covers everything after the version word, so any single flipped bit —
// including in raw float64 weights, which otherwise decode "successfully"
// into silently wrong logits — fails the load closed.
var crcTable = crc64.MakeTable(crc64.ECMA)

var le = binary.LittleEndian

// enc gathers fields into buf, a chunk it makes at the first write, and
// hands the writer (and, between startSum and trailer, the CRC) one call per
// chunk. Without a writer, buf is the whole output: sized exactly by the
// caller, it is never flushed. It keeps the first write error; finish
// reports it.
type enc struct {
	w      io.Writer // nil: buf is the output
	err    error
	crc    uint64
	sum    bool // inside the checksummed region: buf[hashed:n] is owed to crc
	hashed int
	n      int
	buf    []byte
}

// errOutgrown is an output-sized enc asked to hold more than its size.
var errOutgrown = errors.New("checkpoint: encoding outgrew its computed size")

// settle feeds the CRC the chunk bytes it has not seen yet.
func (e *enc) settle() {
	if e.sum {
		e.crc = crc64.Update(e.crc, crcTable, e.buf[e.hashed:e.n])
		e.hashed = e.n
	}
}

// flush hands the writer what buf holds and starts buf over, making the
// chunk on first use. An output-sized enc has no writer to flush to: it has
// outgrown its size, and goes on into a scratch chunk finish's error
// discards.
func (e *enc) flush() {
	e.settle()
	if e.w == nil {
		e.err, e.buf = cmp.Or(e.err, errOutgrown), nil
	} else if e.err == nil && e.n > 0 {
		_, e.err = e.w.Write(e.buf[:e.n])
	}
	e.n, e.hashed = 0, 0
	if e.buf == nil {
		e.buf = make([]byte, chunk)
	}
}

// room returns the next n (≤ chunk) bytes of buf to fill.
func (e *enc) room(n int) []byte {
	if e.n+n > len(e.buf) {
		e.flush()
	}
	e.n += n
	return e.buf[e.n-n : e.n]
}

func (e *enc) u8(v byte)     { e.room(1)[0] = v }
func (e *enc) u32(v uint32)  { le.PutUint32(e.room(4), v) }
func (e *enc) u64(v uint64)  { le.PutUint64(e.room(8), v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// raw writes s, a string or a byte slice, with no length prefix.
func raw[T string | []byte](e *enc, s T) {
	for len(s) > 0 {
		if e.n == len(e.buf) {
			e.flush()
		}
		c := copy(e.buf[e.n:], s)
		e.n += c
		s = s[c:]
	}
}

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	raw(e, s)
}

func (e *enc) f64s(src []float64) {
	for len(src) > 0 {
		if len(e.buf)-e.n < 8 {
			e.flush()
		}
		k := min(len(src), (len(e.buf)-e.n)/8)
		b := e.room(8 * k)
		for i, v := range src[:k] {
			le.PutUint64(b[8*i:], math.Float64bits(v))
		}
		src = src[k:]
	}
}

// bits packs a {0,1} float slice 8 elements per byte, LSB first.
func (e *enc) bits(mask []float64) {
	for i := 0; i < len(mask); i += 8 {
		var b byte
		for j, m := range mask[i:min(i+8, len(mask))] {
			if m != 0 {
				b |= 1 << j
			}
		}
		e.u8(b)
	}
}

// startSum begins the checksummed region at the next byte written.
func (e *enc) startSum() { e.hashed, e.sum = e.n, true }

// trailer ends the checksummed region and writes its sum, which is not
// part of it.
func (e *enc) trailer() {
	e.settle()
	e.sum = false
	e.u64(e.crc)
}

// finish hands a writer what buf still holds, and reports the first error.
func (e *enc) finish() error {
	if e.w != nil {
		e.flush()
	}
	return e.err
}

// dec reads fields through the chunk. It asks the reader for exactly the
// bytes of the field at hand — never ahead — so a loader consumes its
// record and nothing after it, and a record can sit mid-stream. It keeps
// the first read error; after one, every field reads as zero.
type dec struct {
	r   io.Reader
	err error
	crc uint64
	sum bool
	buf [chunk]byte
}

func (d *dec) read(b []byte) {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
	if d.err != nil {
		clear(b)
	} else if d.sum {
		d.crc = crc64.Update(d.crc, crcTable, b)
	}
}

// take reads the next n (≤ chunk) bytes; they are valid until the next call.
func (d *dec) take(n int) []byte {
	d.read(d.buf[:n])
	return d.buf[:n]
}

func (d *dec) u8() byte     { return d.take(1)[0] }
func (d *dec) u32() uint32  { return le.Uint32(d.take(4)) }
func (d *dec) u64() uint64  { return le.Uint64(d.take(8)) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// header consumes a stream's magic and version word and checks both; what
// names the format in the errors.
func (d *dec) header(magic string, version uint32, what string) error {
	head := d.take(4)
	if d.err != nil {
		return d.err
	}
	if string(head) != magic {
		return fmt.Errorf("%s: bad magic %q", what, head)
	}
	if v := d.u32(); d.err == nil && v != version {
		return fmt.Errorf("%s: unsupported version %d (want %d)", what, v, version)
	}
	return d.err
}

func (d *dec) str() string { return d.strN(int(d.u32())) }

// strN materialises an n-byte string; n comes from the stream, so it is
// bounded before anything is allocated for it.
func (d *dec) strN(n int) string {
	if d.err != nil {
		return ""
	}
	if n > 1<<20 {
		d.err = errors.New("checkpoint: implausible string length")
		return ""
	}
	if n <= chunk {
		return string(d.take(n))
	}
	b := make([]byte, n)
	d.read(b)
	return string(b)
}

// expect consumes a stored string and reports whether it is want, without
// building a string when it is; got is the stored string either way. Like
// every field, the answer means nothing once d.err is set.
func (d *dec) expect(want string) (got string, ok bool) {
	n := int(d.u32())
	if n != len(want) || n > chunk {
		got = d.strN(n)
		return got, got == want
	}
	if b := d.take(n); string(b) != want {
		return string(b), false
	}
	return want, true
}

// startSum begins the checksummed region at the next byte read.
func (d *dec) startSum() { d.sum = true }

// checkTrailer ends the checksummed region and holds the computed sum to
// the stored one that follows it.
func (d *dec) checkTrailer(what string) error {
	d.sum = false
	stored := d.u64()
	if d.err != nil {
		return d.err
	}
	if stored != d.crc {
		return fmt.Errorf("checkpoint: %s checksum mismatch (stored %016x, computed %016x)", what, stored, d.crc)
	}
	return nil
}
