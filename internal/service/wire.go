package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The infer codec: InferRequest and InferBatchRequest reach a replica as
// JSON, the public API, or — from service.Client — as a binary frame
// (FrameType, at the end of this file), by Content-Type, and this file
// is the only code that reads either. The JSON decoder walks a buffered
// body once, parsing rows straight into one backing array per request.
// encoding/json is its oracle, not a fallback: it accepts, rejects and
// decodes exactly as json.NewDecoder(body).Decode(&req) does
// (FuzzInferBody), including the corners of its grammar:
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
// PeekDevice is the same scanner with nothing stored: through
// RequestDevice, the cluster router routes a JSON body it does not read.

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

var (
	errWireEOF    = errors.New("unexpected end of JSON input")
	errWireSyntax = errors.New("invalid JSON")
	errWireType   = errors.New("JSON value of the wrong type")
)

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

// FrameType is the media type of the binary infer frame: the request
// service.Client sends to /infer (one row) and /infer-batch, and a
// replica's 200 to one (errors stay JSON). Integers and floats are
// little-endian, and a frame is exactly as long as its counts say.
//
//	request: 'E' 1 (magic, version) · u16 n, n bytes of device tag ·
//	         u32 rows, a u32 width per row · the f64 values, row by row
//	answer:  u32 count · per row i64 pred, i64 stages, u8 expired,
//	         f64 conf, f64 latency_ms
const FrameType = "application/x-eugene-rows"

const answerSize = 8 + 8 + 1 + 8 + 8

func isFrame(h http.Header) bool { return h.Get("Content-Type") == FrameType }

// appendFrame appends the request frame of rows tagged with device,
// refusing NaN and ±Inf as the JSON API refuses them.
func appendFrame(dst []byte, device string, rows ...[]float64) ([]byte, error) {
	if len(device) > math.MaxUint16 {
		return dst, fmt.Errorf("device tag of %d bytes: a frame carries at most %d", len(device), math.MaxUint16)
	}
	dst = binary.LittleEndian.AppendUint16(append(dst, 'E', 1), uint16(len(device)))
	dst = binary.LittleEndian.AppendUint32(append(dst, device...), uint32(len(rows)))
	for _, row := range rows {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row)))
	}
	for _, row := range rows {
		for i, f := range row {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return dst, fmt.Errorf("unsupported value %v at index %d", f, i)
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst, nil
}

// frameTag returns a request frame's device tag and what follows it; ok
// is false for a body with no frame header.
func frameTag(b []byte) (tag, rest []byte, ok bool) {
	if len(b) < 8 || b[0] != 'E' || b[1] != 1 {
		return nil, nil, false
	}
	n := 4 + int(binary.LittleEndian.Uint16(b[2:]))
	if len(b) < n+4 {
		return nil, nil, false
	}
	return b[4:n], b[n:], true
}

// decodeFrame is decodeInferBatchRequest for a frame. Every count is
// checked against the body's length before anything is allocated, and
// the rows are slices of one backing array that cannot grow into each
// other.
func decodeFrame(b []byte, req *InferBatchRequest) error {
	tag, b, ok := frameTag(b)
	if !ok {
		return errors.New("frame: no header")
	}
	n := binary.LittleEndian.Uint32(b)
	if b = b[4:]; uint64(n) > uint64(len(b)/4) {
		return fmt.Errorf("frame: %d rows in %d bytes", n, len(b))
	}
	count := int(n)
	widths, vals := b[:4*count], b[4*count:]
	var total uint64
	for i := range count {
		total += uint64(binary.LittleEndian.Uint32(widths[4*i:]))
	}
	if len(vals)%8 != 0 || total != uint64(len(vals)/8) {
		return fmt.Errorf("frame: widths sum to %d values, not the %d bytes after them", total, len(vals))
	}
	flat := make([]float64, total)
	for i := range flat {
		if flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:])); math.IsInf(flat[i], 0) || math.IsNaN(flat[i]) {
			return fmt.Errorf("frame: unsupported value %v", flat[i])
		}
	}
	rows := make([][]float64, count)
	for i, off := 0, 0; i < count; i++ {
		end := off + int(binary.LittleEndian.Uint32(widths[4*i:]))
		rows[i], off = flat[off:end:end], end
	}
	req.Inputs, req.Device = rows, frameDevice(tag)
	return nil
}

// decodeFrameRequest is decodeInferRequest for a frame of one row.
func decodeFrameRequest(body []byte, req *InferRequest) error {
	var batch InferBatchRequest
	err := decodeFrame(body, &batch)
	if err == nil && len(batch.Inputs) != 1 {
		err = fmt.Errorf("frame: %d rows for a single infer", len(batch.Inputs))
	}
	if err == nil {
		req.Input, req.Device = batch.Inputs[0], batch.Device
	}
	return err
}

// frameDevice is a device tag with a U+FFFD for each byte that is not
// UTF-8, as appendUnquoted coerces one: a device keeps its tracker and
// its rendezvous owner in either format.
func frameDevice(tag []byte) string {
	if utf8.Valid(tag) {
		return string(tag)
	}
	return string([]rune(string(tag)))
}

// RequestDevice is the device tag of an infer request body sent with
// header h, read as the replica reads it: PeekDevice's for JSON.
func RequestDevice(h http.Header, body []byte) string {
	if !isFrame(h) {
		return PeekDevice(body)
	}
	tag, _, _ := frameTag(body)
	return frameDevice(tag)
}

// appendAnswers appends the answer frame of results.
func appendAnswers(dst []byte, results []InferResponse) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(results)))
	for _, r := range results {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Pred))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Stages))
		var expired byte
		if r.Expired {
			expired = 1
		}
		dst = append(dst, expired)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Conf))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.LatencyMS))
	}
	return dst
}

// decodeAnswers decodes an answer frame into out, an *InferResponse (one
// answer) or an *InferBatchResponse.
func decodeAnswers(b []byte, out any) error {
	if len(b) < 4 || uint64(len(b)-4) != uint64(binary.LittleEndian.Uint32(b))*answerSize {
		return fmt.Errorf("frame: answer count does not fit %d bytes", len(b))
	}
	count := (len(b) - 4) / answerSize
	results := make([]InferResponse, count)
	for i := range results {
		a := b[4+i*answerSize:]
		if a[16] > 1 {
			return fmt.Errorf("frame: expired flag %d", a[16])
		}
		results[i] = InferResponse{
			Pred:      int(binary.LittleEndian.Uint64(a)),
			Stages:    int(binary.LittleEndian.Uint64(a[8:])),
			Expired:   a[16] == 1,
			Conf:      math.Float64frombits(binary.LittleEndian.Uint64(a[17:])),
			LatencyMS: math.Float64frombits(binary.LittleEndian.Uint64(a[25:])),
		}
	}
	if one, ok := out.(*InferResponse); ok && count == 1 {
		*one = results[0]
	} else if batch, ok := out.(*InferBatchResponse); ok {
		batch.Results = results
	} else {
		return fmt.Errorf("frame: %d answers for a %T", count, out)
	}
	return nil
}
