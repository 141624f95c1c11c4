package service

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The infer codec: InferRequest and InferBatchRequest cross the wire as
// JSON, and this file is the only code that writes or reads them. The
// encoder appends into a caller-owned buffer; the decoder walks a
// buffered body once, parsing rows straight into one backing array per
// request. encoding/json is the oracle, not a fallback: the encoder's
// output is byte for byte what json.Marshal produces, and the decoder
// accepts, rejects and decodes exactly as
// json.NewDecoder(body).Decode(&req) does (FuzzInferBody), including
// the corners of its grammar:
//
//   - one top-level value, bytes after it ignored; `null` leaves the
//     request zero; any other non-object is an error;
//   - keys match a field as bytes.EqualFold does ("Inputs", "INPUTS",
//     "inputs"), unknown keys are skipped after full validation,
//     nesting deeper than 10000 is an error;
//   - a repeated key decodes again into what the first occurrence left:
//     the later array wins, but a `null` element in it keeps the number
//     that position held before (0 if none), as a `null` device keeps
//     the earlier string; a `null` or `[]` array forgets the history;
//   - numbers follow the JSON grammar (no "+1", ".5", "01", "NaN") and
//     must fit a float64 ("1e999" is an error, "1e-999" is 0); a
//     string, bool, object or nested array where a number or row
//     belongs is an error;
//   - device strings have their escapes resolved, lone surrogates and
//     invalid UTF-8 replaced by U+FFFD.
//
// PeekDevice is the same scanner with nothing stored: the cluster
// router uses it to route a body it does not otherwise read.

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

var (
	errWireEOF    = errors.New("unexpected end of JSON input")
	errWireSyntax = errors.New("invalid JSON")
	errWireType   = errors.New("JSON value of the wrong type")
)

// appendInferRequest appends the JSON form of InferRequest{input,
// device}. NaN and ±Inf have no JSON form and are an error.
func appendInferRequest(dst []byte, input []float64, device string) ([]byte, error) {
	dst = append(dst, `{"input":`...)
	dst, err := appendRow(dst, input)
	if err != nil {
		return dst, err
	}
	return appendDeviceAndClose(dst, device), nil
}

// appendInferBatchRequest appends the JSON form of
// InferBatchRequest{inputs, device}.
func appendInferBatchRequest(dst []byte, inputs [][]float64, device string) ([]byte, error) {
	dst = append(dst, `{"inputs":`...)
	if inputs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, row := range inputs {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendRow(dst, row); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return appendDeviceAndClose(dst, device), nil
}

func appendRow(dst []byte, row []float64) ([]byte, error) {
	if row == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, fmt.Errorf("unsupported value %v at index %d", f, i)
		}
		// The ES6 number form encoding/json writes: plain decimals
		// between 1e-6 and 1e21, exponents outside, shortest digits that
		// round-trip either way.
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 64)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1] // e-09 is written e-9
			dst = dst[:n-1]
		}
	}
	return append(dst, ']'), nil
}

// appendDeviceAndClose ends the request object, with the device member
// when there is one (the field is omitempty).
func appendDeviceAndClose(dst []byte, device string) []byte {
	if device != "" {
		dst = append(dst, `,"device":`...)
		dst = appendJSONString(dst, device)
	}
	return append(dst, '}')
}

// appendJSONString appends s quoted as encoding/json quotes strings:
// controls, the quote and the backslash escaped, the HTML-unsafe <, >
// and & and the JavaScript-unsafe U+2028 and U+2029 as \u escapes, and
// each byte that is not UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// wireScan is a cursor over one buffered request body.
type wireScan struct {
	b []byte
	i int
	// first is true until the open object's first member has been read.
	first bool
	// flat backs every row decoded for the first time: sized once from
	// the body's comma count (an upper bound on its numbers), so rows
	// are slices of one array and nothing grows.
	flat []float64
}

func (s *wireScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, 0 at the end of the body (no
// JSON token starts with 0).
func (s *wireScan) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// fail names what is wrong at the cursor.
func (s *wireScan) fail(err error) error {
	if s.i >= len(s.b) {
		err = errWireEOF
	}
	return fmt.Errorf("%w at byte %d", err, s.i)
}

// lit consumes the literal word at the cursor.
func (s *wireScan) lit(word string) bool {
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return false
	}
	s.i += len(word)
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanNumber consumes a number in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and reports whether
// it found one; if not, the cursor is on the offending byte.
//
//eugene:noalloc
func (s *wireScan) scanNumber() bool {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := false
	switch {
	case i < len(b) && b[i] == '0':
		i, ok = i+1, true
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i, ok = i+1, true; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if ok && i < len(b) && b[i] == '.' {
		i++
		for ok = false; i < len(b) && isDigit(b[i]); i++ {
			ok = true
		}
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '-' || b[i] == '+') {
			i++
		}
		for ok = false; i < len(b) && isDigit(b[i]); i++ {
			ok = true
		}
	}
	s.i = i
	return ok
}

// number consumes a number and returns its value; inRange is false for
// one no float64 holds. The grammar is checked first because
// strconv.ParseFloat's is wider ("+1", ".5", "0x1p3", "1_0", "Inf");
// the string conversion does not escape.
//
//eugene:noalloc
func (s *wireScan) number() (v float64, ok, inRange bool) {
	start := s.i
	if !s.scanNumber() {
		return 0, false, false
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	return v, true, err == nil
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str consumes the string literal at the cursor (on its opening quote)
// and returns what stands between the quotes, escapes validated but
// not yet resolved.
//
//eugene:noalloc
func (s *wireScan) str() ([]byte, bool) {
	b := s.b
	start := s.i + 1
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], true
		case c < ' ':
			s.i = i
			return nil, false
		case c == '\\':
			i++
			if i >= len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(b) || !isHex(b[i+k]) {
						s.i = min(i+k, len(b))
						return nil, false
					}
				}
				i += 4
			default:
				s.i = i
				return nil, false
			}
		}
	}
	s.i = len(b)
	return nil, false
}

// appendUnquoted resolves the escapes of raw, a string body str has
// validated, coercing it to valid UTF-8 as encoding/json does.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch raw[i] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; a lone half is U+FFFD.
					r2 := rune(-1)
					if i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
						r2 = hex4(raw[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				dst = utf8.AppendRune(dst, r)
			default: // ", \ and /
				dst = append(dst, raw[i])
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// hex4 reads four validated hex digits.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case isDigit(c):
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquoted is raw with its escapes resolved; raw itself when there is
// nothing to resolve.
func unquoted(raw []byte, scratch []byte) []byte {
	if bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return raw
	}
	return appendUnquoted(scratch, raw)
}

// skip consumes one value of any type at the cursor, validating all of
// it. depth is the nesting depth the value sits at.
//
//eugene:noalloc
func (s *wireScan) skip(depth int) bool {
	switch c := s.peek(); c {
	case '"':
		_, ok := s.str()
		return ok
	case 't':
		return s.lit("true")
	case 'f':
		return s.lit("false")
	case 'n':
		return s.lit("null")
	case '[', '{':
		if depth >= maxWireDepth {
			return false
		}
		closer := c + 2 // ']' follows '[' by two, '}' follows '{' by two
		s.i++
		s.ws()
		if s.peek() == closer {
			s.i++
			return true
		}
		for {
			if c == '{' {
				if s.peek() != '"' {
					return false
				}
				if _, ok := s.str(); !ok {
					return false
				}
				s.ws()
				if s.peek() != ':' {
					return false
				}
				s.i++
				s.ws()
			}
			if !s.skip(depth + 1) {
				return false
			}
			s.ws()
			switch s.peek() {
			case ',':
				s.i++
				s.ws()
			case closer:
				s.i++
				return true
			default:
				return false
			}
		}
	default:
		return s.scanNumber()
	}
}

// open consumes the start of the top-level value and reports whether
// it is an object whose members key will walk; a `null` is no object
// and no error.
func (s *wireScan) open() (bool, error) {
	s.ws()
	switch s.peek() {
	case '{':
		s.i++
		s.first = true
		return true, nil
	case 'n':
		if s.lit("null") {
			return false, nil
		}
		return false, s.fail(errWireSyntax)
	}
	if s.skip(0) {
		return false, s.fail(errWireType)
	}
	return false, s.fail(errWireSyntax)
}

// key consumes up to the next member's value and returns the member's
// raw key, or nil once the object has closed. The caller consumes the
// value before calling key again.
func (s *wireScan) key() ([]byte, error) {
	s.ws()
	c := s.peek()
	if c == '}' {
		s.i++
		return nil, nil
	}
	if !s.first {
		if c != ',' {
			return nil, s.fail(errWireSyntax)
		}
		s.i++
		s.ws()
	}
	s.first = false
	if s.peek() != '"' {
		return nil, s.fail(errWireSyntax)
	}
	raw, ok := s.str()
	if !ok {
		return nil, s.fail(errWireSyntax)
	}
	s.ws()
	if s.peek() != ':' {
		return nil, s.fail(errWireSyntax)
	}
	s.i++
	s.ws()
	return raw, nil
}

// keyIs reports whether a member's raw key names field, as
// encoding/json matches keys to fields: exactly, or under Unicode
// simple case folding.
func keyIs(raw []byte, field string) bool {
	var scratch [32]byte
	return bytes.EqualFold(unquoted(raw, scratch[:0]), []byte(field))
}

// stringField decodes a string member into dst; `null` leaves dst as
// it is.
func (s *wireScan) stringField(dst *string) error {
	switch s.peek() {
	case 'n':
		if !s.lit("null") {
			return s.fail(errWireSyntax)
		}
		return nil
	case '"':
		raw, ok := s.str()
		if !ok {
			return s.fail(errWireSyntax)
		}
		*dst = string(unquoted(raw, nil))
		return nil
	}
	return s.fail(errWireType)
}

// row decodes an array of numbers into *dst. What *dst held — up to
// its capacity — is the history a repeated key decodes into (see the
// file comment); a row met for the first time is carved out of s.flat.
func (s *wireScan) row(dst *[]float64) error {
	switch s.peek() {
	case 'n':
		if !s.lit("null") {
			return s.fail(errWireSyntax)
		}
		*dst = nil
		return nil
	case '[':
	default:
		return s.fail(errWireType)
	}
	s.i++
	s.ws()
	if s.peek() == ']' {
		s.i++
		*dst = []float64{}
		return nil
	}
	fresh := cap(*dst) == 0
	full := (*dst)[:cap(*dst)]
	if fresh {
		if s.flat == nil {
			// Every number but the last of the body is followed by a
			// comma, and takes two bytes at the least.
			s.flat = make([]float64, 0, min(bytes.Count(s.b, []byte{','}), len(s.b)/2)+1)
		}
		full = s.flat[len(s.flat):]
	}
	n := 0
	for {
		var v float64
		null := s.peek() == 'n'
		if null {
			if !s.lit("null") {
				return s.fail(errWireSyntax)
			}
		} else {
			start := s.i
			var ok, inRange bool
			if v, ok, inRange = s.number(); !ok {
				// Something else that is well formed is the wrong type.
				if s.i = start; s.skip(2) {
					s.i = start
					return s.fail(errWireType)
				}
				return s.fail(errWireSyntax)
			} else if !inRange {
				s.i = start
				return s.fail(errWireType)
			}
		}
		switch {
		case n == len(full):
			full = append(full, v)
		case !null:
			full[n] = v
		}
		n++
		s.ws()
		if c := s.peek(); c == ',' {
			s.i++
			s.ws()
			continue
		} else if c != ']' {
			return s.fail(errWireSyntax)
		}
		s.i++
		break
	}
	if fresh && len(full) <= cap(s.flat)-len(s.flat) {
		s.flat = s.flat[:len(s.flat)+len(full)]
	}
	*dst = full[:n:len(full)]
	return nil
}

// rows decodes an array of rows into *dst, with row's rules at both
// levels.
func (s *wireScan) rows(dst *[][]float64) error {
	switch s.peek() {
	case 'n':
		if !s.lit("null") {
			return s.fail(errWireSyntax)
		}
		*dst = nil
		return nil
	case '[':
	default:
		return s.fail(errWireType)
	}
	s.i++
	s.ws()
	if s.peek() == ']' {
		s.i++
		*dst = [][]float64{}
		return nil
	}
	full := (*dst)[:cap(*dst)]
	n := 0
	for {
		if n < len(full) {
			if err := s.row(&full[n]); err != nil {
				return err
			}
		} else {
			var r []float64
			if err := s.row(&r); err != nil {
				return err
			}
			if full == nil {
				// As many rows as the first one's width leaves room for, and
				// no more than the body has brackets to open.
				full = make([][]float64, 0, min(cap(s.flat)/max(len(r), 1)+1, bytes.Count(s.b, []byte{'['})))
			}
			full = append(full, r)
		}
		n++
		s.ws()
		if c := s.peek(); c == ',' {
			s.i++
			s.ws()
			continue
		} else if c != ']' {
			return s.fail(errWireSyntax)
		}
		s.i++
		break
	}
	*dst = full[:n:len(full)]
	return nil
}

// request walks the top-level value of an infer request of either
// shape: the member named rowsKey goes to rows (skipped like any other
// when rows is nil), "device" to *device, and the rest is validated and
// dropped.
func (s *wireScan) request(rowsKey string, rows func() error, device *string) error {
	obj, err := s.open()
	for obj && err == nil {
		var key []byte
		if key, err = s.key(); key == nil {
			break
		}
		switch {
		case rows != nil && keyIs(key, rowsKey):
			err = rows()
		case keyIs(key, "device"):
			err = s.stringField(device)
		default:
			if !s.skip(1) {
				err = s.fail(errWireSyntax)
			}
		}
	}
	return err
}

// decodeInferRequest decodes body into req as
// json.NewDecoder(body).Decode(req) would. The decoded rows do not
// alias body.
func decodeInferRequest(body []byte, req *InferRequest) error {
	s := wireScan{b: body}
	return s.request("input", func() error { return s.row(&req.Input) }, &req.Device)
}

// decodeInferBatchRequest is decodeInferRequest for the batch shape.
func decodeInferBatchRequest(body []byte, req *InferBatchRequest) error {
	s := wireScan{b: body}
	return s.request("inputs", func() error { return s.rows(&req.Inputs) }, &req.Device)
}

// PeekDevice returns the device tag of an infer request body of either
// shape without decoding the rest: what the replica's decoder will put
// in Device if it accepts the body. For a body the replica will refuse
// the answer means nothing, and is "" wherever the scan itself fails.
func PeekDevice(body []byte) string {
	// A key that folds to "device" holds a v or a V, spelled out or as
	// an escape, and no other rune folds to either: a body with none of
	// the three bytes — every untagged batch of numbers — has no such
	// key, and three vectorised searches say so without a scan.
	if bytes.IndexByte(body, 'v') < 0 && bytes.IndexByte(body, 'V') < 0 && bytes.IndexByte(body, '\\') < 0 {
		return ""
	}
	s := wireScan{b: body}
	var device string
	if s.request("", nil, &device) != nil {
		return ""
	}
	return device
}
