package api

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The predict wire codec. One hand-written JSON scanner reads a /predict (or
// /personalize) body for both tiers: the cluster router takes the class set
// and the QoS class out of it (Route) and checks everything else for syntax
// only; a shard decodes the whole of it (predictRequest.decode), the inputs
// straight into the [B,C,H,W] batch tensor. Neither allocates in the steady
// state.
//
// What the codec accepts, and what it makes of it, is exactly what
// json.Unmarshal into
//
//	struct {
//		Classes []int       `json:"classes"`
//		QoS     string      `json:"qos"`
//		Samples int         `json:"samples"`
//		Inputs  [][]float64 `json:"inputs"`
//	}
//
// accepts and produces — FuzzPredictCodec holds it to that — including the
// corners: member names match in any letter case (and through escapes and
// the two non-ASCII letters that fold to ASCII); unknown members are checked
// and ignored; null leaves a number or string as it was and empties a list;
// a repeated member decodes over the earlier one, so a null element keeps
// the value the earlier list had there; "classes" elements must be integer
// literals (1.0 and 1e0 are rejected); numbers go through strconv.ParseFloat;
// nesting deeper than 10000 and anything after the closing brace are errors.

// MaxBody bounds a request body on both tiers; a longer one is answered 413.
const MaxBody = 32 << 20

// MaxColdBody bounds the body of the endpoints that carry no inputs — a
// class list (/personalize) or a key and two fingerprints (/handoff): room
// for every id of a 1000-class model several times over.
const MaxColdBody = 16 << 10

// MaxPooledBody is the largest body buffer either tier keeps for reuse: one
// 32 MiB request must not pin its buffers in a pool.
const MaxPooledBody = 1 << 20

// ErrBodyTooLarge is ReadBody's error for a body over its limit.
var ErrBodyTooLarge = errors.New("request body too large")

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// ReadBody reads the whole request body into buf's storage, which it grows
// to Content-Length up front when the client sent one. A body longer than
// limit is ErrBodyTooLarge, never a silent truncation.
func ReadBody(buf []byte, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return buf, ErrBodyTooLarge
	}
	buf = buf[:0]
	// One spare byte, so the read that finds EOF does not have to grow.
	if n := int(r.ContentLength) + 1; n > cap(buf) {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf, ErrBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// BodyErrorStatus is the status a ReadBody error is answered with.
func BodyErrorStatus(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Route extracts what the cluster router places and times a request by: the
// "classes" member, as sent (appended to mem[:0]; serve.AppendKey makes the
// tenant key of it), and the "qos" member. Every other member is skipped,
// checked for syntax only: its type errors are the owning shard's to report.
func Route(body []byte, mem []int) (classes []int, qos string, err error) {
	s := scanner{b: body}
	mem, n := mem[:0], 0
	err = s.object(func(f field) (err error) {
		switch f {
		case fieldClasses:
			mem, n, err = s.ints(mem)
		case fieldQoS:
			qos, err = s.text(qos)
		default:
			err = s.skip(1)
		}
		return err
	})
	if err != nil {
		return nil, "", err
	}
	return mem[:n], qos, nil
}

// predictRequest is one decoded /predict body and the storage it decodes
// into, reused from request to request.
type predictRequest struct {
	classes []int // the "classes" member, as sent
	samples int
	rows    int // rows of the "inputs" member
	// badRow is the first row whose length is not vol values (badLen of
	// them), or -1. It is not a decode error: a repeated "inputs" member may
	// still replace the row, and the class set is validated first.
	badRow, badLen int

	// ints and x are the storage classes and the input rows decode into.
	// Their lengths are the high-water marks of this request: everything
	// below was written by this request, so a null element of a repeated
	// member finds there what encoding/json would. x holds row r at
	// [r*vol, (r+1)*vol).
	ints []int
	x    []float64
}

// decode reads body into p. vol is the number of values an input row must
// have.
func (p *predictRequest) decode(body []byte, vol int) error {
	s := scanner{b: body}
	p.ints, p.x = p.ints[:0], p.x[:0]
	p.samples, p.rows, p.badRow = 0, 0, -1
	nClasses := 0
	err := s.object(func(f field) (err error) {
		switch f {
		case fieldClasses:
			p.ints, nClasses, err = s.ints(p.ints)
		case fieldSamples:
			p.samples, err = s.int(p.samples)
		case fieldInputs:
			err = p.inputs(&s, vol)
		default:
			err = s.skip(1)
		}
		return err
	})
	p.classes = p.ints[:nClasses]
	return err
}

// inputs decodes the "inputs" member under the cursor into p.x.
func (p *predictRequest) inputs(s *scanner, vol int) error {
	p.rows, p.badRow = 0, -1
	if s.ws() == 'n' {
		p.x = p.x[:0]
		return s.lit("null")
	}
	// Only a position below rows*vol can reach the tensor, and a body that
	// ends with every row full spends two bytes on each, so nothing past
	// half the body's length is worth storing: a body of short rows cannot
	// reserve a stride apiece.
	limit := len(s.b)/2 + 1
	empty, err := s.open('[', ']', 2)
	if err != nil {
		return err
	}
	if empty {
		p.x = p.x[:0]
		return nil
	}
	for more := true; more; p.rows++ {
		base := p.rows * vol
		p.x = extend(p.x, min(base+vol, limit))
		row := p.x[min(base, len(p.x)):min(base+vol, len(p.x))]
		n, err := s.floats(row)
		if err != nil {
			return err
		}
		if n == 0 {
			// null and [] are a fresh row: nothing of an earlier one stays.
			clear(row)
		}
		if n != vol && p.badRow < 0 {
			p.badRow, p.badLen = p.rows, n
		}
		if more, err = s.more(']'); err != nil {
			return err
		}
	}
	return nil
}

// batch returns the decoded rows as [rows*vol] tensor data, or the error of
// the first row that is not vol values long.
func (p *predictRequest) batch(vol int) ([]float64, error) {
	if p.badRow >= 0 {
		return nil, fmt.Errorf("input %d has %d values, want C*H*W=%d", p.badRow, p.badLen, vol)
	}
	p.x = extend(p.x, p.rows*vol)
	return p.x[:p.rows*vol], nil
}

// extend grows v to at least n elements, the new ones zero.
func extend[T int | float64](v []T, n int) []T {
	if n <= len(v) {
		return v
	}
	old := len(v)
	v = slices.Grow(v, n-old)[:n]
	clear(v[old:])
	return v
}

// appendPredictReply appends the /predict reply for caller-provided inputs,
// byte for byte what json.NewEncoder writes for
// map[string]any{"key": key, "predictions": preds, "samples": len(preds)}.
func appendPredictReply(dst, key []byte, preds []int) []byte {
	dst = append(dst, `{"key":"`...)
	dst = append(dst, key...)
	dst = append(dst, `","predictions":`...)
	if preds == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range preds {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(c), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"samples":`...)
	dst = strconv.AppendInt(dst, int64(len(preds)), 10)
	return append(dst, "}\n"...)
}

// field is a request member the codec decodes; every other name is
// fieldUnknown.
type field int

const (
	fieldUnknown field = iota
	fieldClasses
	fieldQoS
	fieldSamples
	fieldInputs
)

// scanner walks one JSON text. A method that finds the text malformed, or a
// value of the wrong type for its member, returns an error; the cursor is
// then meaningless.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.i, fmt.Sprintf(format, args...))
}

// ws skips white space and returns the byte under the cursor, 0 at the end
// of the text (a NUL in the text is malformed wherever it stands, so callers
// need not tell the two apart).
func (s *scanner) ws() byte {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
		default:
			return s.b[s.i]
		}
	}
	return 0
}

// lit consumes the literal word.
func (s *scanner) lit(word string) error {
	if string(s.b[s.i:min(s.i+len(word), len(s.b))]) != word {
		return s.errorf("invalid literal")
	}
	s.i += len(word)
	return nil
}

// object walks the body's top-level object, calling member for each of its
// members with the cursor on the member's value, which member consumes. A
// top-level null is an object without members, and nothing but white space
// may follow either.
func (s *scanner) object(member func(field) error) error {
	more := false
	var err error
	if s.ws() == 'n' {
		err = s.lit("null")
	} else {
		var empty bool
		empty, err = s.open('{', '}', 1)
		more = !empty
	}
	for more && err == nil {
		var raw []byte
		var plain bool
		if raw, plain, err = s.name(); err == nil {
			err = member(lookupField(raw, plain))
		}
		if err == nil {
			more, err = s.more('}')
		}
	}
	if err == nil && (s.ws() != 0 || s.i < len(s.b)) {
		err = s.errorf("data after the request object")
	}
	return err
}

// open consumes the opener of an array or object at nesting depth, and the
// closer too if the container is empty.
func (s *scanner) open(opener, closer byte, depth int) (empty bool, err error) {
	if s.ws() != opener {
		return false, s.errorf("want %q", opener)
	}
	if depth > maxDepth {
		return false, s.errorf("nesting deeper than %d", maxDepth)
	}
	s.i++
	if s.ws() == closer {
		s.i++
		return true, nil
	}
	return false, nil
}

// more consumes what follows an element: a comma (another element is next)
// or the closer.
func (s *scanner) more(closer byte) (bool, error) {
	switch s.ws() {
	case ',':
		s.i++
		return true, nil
	case closer:
		s.i++
		return false, nil
	}
	return false, s.errorf("want ',' or %q", closer)
}

// name consumes an object member's name and colon, leaving the cursor on
// its value, and returns the name as str does.
func (s *scanner) name() (raw []byte, plain bool, err error) {
	if s.ws() != '"' {
		return nil, false, s.errorf("want a member name")
	}
	if raw, plain, err = s.str(); err != nil {
		return nil, false, err
	}
	if s.ws() != ':' {
		return nil, false, s.errorf("want ':'")
	}
	s.i++
	return raw, plain, nil
}

// lookupField matches a member name the way encoding/json matches struct
// fields: by the name's case fold, which takes 'a'–'z' to upper case and,
// beyond ASCII, every letter to the least of its Unicode simple-fold orbit
// (U+017F folds to 'S', U+212A to 'K').
func lookupField(raw []byte, plain bool) field {
	var buf [8]byte
	folded := buf[:0]
	if plain {
		if len(raw) > len(buf) {
			return fieldUnknown
		}
		for _, c := range raw {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			folded = append(folded, c)
		}
	} else {
		var nbuf [64]byte
		for name := unquote(nbuf[:0], raw); len(name) > 0; {
			r, n := utf8.DecodeRune(name)
			name = name[n:]
			for {
				f := unicode.SimpleFold(r)
				if f <= r {
					r = f
					break
				}
				r = f
			}
			if r >= utf8.RuneSelf || len(folded) == len(buf) {
				return fieldUnknown
			}
			folded = append(folded, byte(r))
		}
	}
	switch string(folded) {
	case "CLASSES":
		return fieldClasses
	case "QOS":
		return fieldQoS
	case "SAMPLES":
		return fieldSamples
	case "INPUTS":
		return fieldInputs
	}
	return fieldUnknown
}

// str consumes the string under the cursor and returns the bytes between
// its quotes, and whether they are plain: ASCII with no escape, so that they
// are the string's value as they stand.
func (s *scanner) str() (raw []byte, plain bool, err error) {
	b := s.b
	start := s.i + 1
	plain = true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					s.i = i
					return nil, false, s.errorf("invalid \\u escape")
				}
				i += 4
			default:
				s.i = i
				return nil, false, s.errorf("invalid escape")
			}
		case c < ' ':
			s.i = i
			return nil, false, s.errorf("control character in string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	s.i = len(b)
	return nil, false, s.errorf("unterminated string")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote appends the value of a string str accepted: escapes resolved, a
// surrogate pair joined, and a lone surrogate or a byte that is not UTF-8
// replaced by U+FFFD, as encoding/json does.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\':
			c = raw[i+1]
			i += 2
			switch c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				r := hex4(raw[i:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						r2 = hex4(raw[i+2:])
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						i += 6
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			}
			dst = append(dst, c)
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// text decodes a string member: null leaves old, anything but a string is a
// type error.
func (s *scanner) text(old string) (string, error) {
	switch s.ws() {
	case 'n':
		return old, s.lit("null")
	case '"':
		raw, plain, err := s.str()
		if err != nil || plain {
			return string(raw), err
		}
		return string(unquote(nil, raw)), nil
	}
	return "", s.errorf("want a string")
}

// number consumes the number under the cursor and returns its text, and
// whether it is an integer literal: no fraction, no exponent.
func (s *scanner) number() (tok []byte, integer bool, err error) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if j := digits(b, i); j > i {
		i = j
	} else {
		return nil, false, s.errorf("want a number")
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			s.i = i
			return nil, false, s.errorf("want a digit after '.'")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			s.i = i
			return nil, false, s.errorf("want a digit in the exponent")
		}
	}
	tok = b[s.i:i]
	s.i = i
	return tok, integer, nil
}

// digits returns the end of the run of digits that starts at b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int decodes an integer member or element: null leaves old.
func (s *scanner) int(old int) (int, error) {
	if s.ws() == 'n' {
		return old, s.lit("null")
	}
	tok, integer, err := s.number()
	if err != nil {
		return 0, err
	}
	if !integer {
		return 0, s.errorf("%s is not an integer", tok)
	}
	v, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		return 0, s.errorf("%s does not fit an int", tok)
	}
	return int(v), nil
}

// float decodes a number element.
func (s *scanner) float() (float64, error) {
	tok, _, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, s.errorf("%s does not fit a float64", tok)
	}
	return f, nil
}

// floats decodes one row of numbers (or null, a row of none) and returns how
// many it has, however long dst is; the first len(dst) are stored, and a null
// element leaves dst as it was there.
func (s *scanner) floats(dst []float64) (n int, err error) {
	if s.ws() == 'n' {
		return 0, s.lit("null")
	}
	empty, err := s.open('[', ']', 3)
	if err != nil || empty {
		return 0, err
	}
	for more := true; more; n++ {
		if s.ws() == 'n' {
			err = s.lit("null")
		} else {
			var f float64
			if f, err = s.float(); err == nil && n < len(dst) {
				dst[n] = f
			}
		}
		if err == nil {
			more, err = s.more(']')
		}
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}

// ints decodes a list-of-integers member into mem and returns it with the
// list's length. mem's own length only grows, to the longest list decoded
// into it: see predictRequest.ints.
func (s *scanner) ints(mem []int) ([]int, int, error) {
	if s.ws() == 'n' {
		return mem[:0], 0, s.lit("null")
	}
	empty, err := s.open('[', ']', 2)
	if err != nil || empty {
		return mem[:0], 0, err
	}
	n := 0
	for more := true; more; n++ {
		mem = extend(mem, n+1)
		if mem[n], err = s.int(mem[n]); err != nil {
			return mem, 0, err
		}
		if more, err = s.more(']'); err != nil {
			return mem, 0, err
		}
	}
	return mem, n, nil
}

// skip consumes the value under the cursor, whatever it is, checking its
// syntax. depth is the nesting depth of the value's container.
func (s *scanner) skip(depth int) error {
	var closer byte
	switch c := s.ws(); c {
	case '"':
		_, _, err := s.str()
		return err
	case 't':
		return s.lit("true")
	case 'f':
		return s.lit("false")
	case 'n':
		return s.lit("null")
	case '[':
		closer = ']'
	case '{':
		closer = '}'
	default:
		_, _, err := s.number()
		return err
	}
	empty, err := s.open(s.b[s.i], closer, depth+1)
	if err != nil || empty {
		return err
	}
	for more := true; more; {
		if closer == '}' {
			if _, _, err = s.name(); err != nil {
				return err
			}
		}
		if err = s.skip(depth + 1); err != nil {
			return err
		}
		if more, err = s.more(closer); err != nil {
			return err
		}
	}
	return nil
}
