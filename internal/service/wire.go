package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"unicode/utf8"
)

// The infer codec: InferRequest and InferBatchRequest reach a replica as
// JSON, the public API, or — from service.Client — as a binary frame
// (FrameType, below), by Content-Type; this file reads either. JSON is
// encoding/json's Decoder: one top-level value, bytes after it ignored.

// decodeInferRequest and decodeInferBatchRequest decode a JSON body into
// req; the decoded rows do not alias it.
func decodeInferRequest(body []byte, req *InferRequest) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

func decodeInferBatchRequest(body []byte, req *InferBatchRequest) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// PeekDevice returns the device tag of an infer request body of either
// shape without decoding its rows: what the replica's decoder will put
// in Device if it accepts the body. For a body the replica will refuse
// the answer means nothing, and is "" wherever decoding fails.
func PeekDevice(body []byte) string {
	// A key that folds to "device" holds a v or a V, spelled out or as
	// an escape, and no other rune folds to either: a body with none of
	// the three bytes — every untagged batch of numbers — has no such
	// key, and three vectorised searches say so without a decode.
	if bytes.IndexByte(body, 'v') < 0 && bytes.IndexByte(body, 'V') < 0 && bytes.IndexByte(body, '\\') < 0 {
		return ""
	}
	var req struct{ Device string }
	if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
		return ""
	}
	return req.Device
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
// UTF-8, as encoding/json coerces one: a device keeps its tracker and
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
