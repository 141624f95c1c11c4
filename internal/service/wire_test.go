package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"eugene/internal/core"
)

// wireSeeds are the bodies the differential tests start from: every
// corner of the grammar the codec's file comment names.
var wireSeeds = []string{
	`{"input":[1,2.5,-3e2],"device":"fridge"}`,
	`{"inputs":[[1,2],[3,4]],"device":"fridge"}`,
	// Key order, case folding, escapes in keys, unknown keys.
	`{"device":"d","input":[1]}`,
	`{"INPUT":[1],"Device":"d"}`,
	`{"Inputs":[[1]],"DEVICE":"d"}`,
	"{\"input\u017f\":[[7]],\"inputs\":[[8]]}",
	"{\"inputſ\":[[7]]}",
	`{"\u0069nput":[1],"dev\u0069ce":"d"}`,
	`{"x":{"a":[1,{"b":null}],"c":"\u00e9\n"},"input":[1],"y":[[],{}],"z":true,"w":false,"v":null,"u":-0.5e-3}`,
	`{"":1,"input":[2]}`,
	// Whitespace.
	" \t\r\n{ \"input\" : [ 1 , 2 ] , \"device\" : \"d\" } \n",
	`{"inputs" : [ [ 1 , 2 ] , [ 3 ] ] }`,
	// null at every level.
	`null`, ` null `, `nullx`, `nul`,
	`{"input":null}`, `{"inputs":null}`, `{"device":null}`,
	`{"input":[null,1,null]}`, `{"inputs":[null,[1,null],null]}`,
	// Duplicate keys decode into what the first left.
	`{"input":[1,2,3],"input":[4]}`,
	`{"input":[1,2,3],"input":[null]}`,
	`{"input":[1,2,3],"input":[4],"input":[null,null,null,null]}`,
	`{"input":[1,2,3],"input":[],"input":[null]}`,
	`{"input":[1,2,3],"input":null,"input":[null]}`,
	`{"inputs":[[1,2],[3]],"inputs":[[null]]}`,
	`{"inputs":[[1,2],[3]],"inputs":[[null,null,null],null,[null]]}`,
	`{"inputs":[[1,2],[3,4]],"inputs":[[5]],"inputs":[[null,null],[null,null]]}`,
	`{"inputs":[[1,2]],"inputs":[],"inputs":[[null]]}`,
	`{"inputs":[[1],[2],[3]],"Inputs":[[null],[]],"INPUTS":[null,[null],[null]]}`,
	`{"device":"a","device":"b"}`, `{"device":"a","device":null}`,
	// Numbers.
	`{"input":[1E5,-0,0,0.0,4.9e-324,2.2250738585072014e-308,1.7976931348623157e308,0.1234567890123456789,123456789012345678901234567890]}`,
	`{"input":[1e999]}`, `{"input":[-1e999]}`, `{"input":[1e-999]}`,
	`{"input":[01]}`, `{"input":[+1]}`, `{"input":[.5]}`, `{"input":[1.]}`, `{"input":[1.e3]}`,
	`{"input":[-]}`, `{"input":[1e]}`, `{"input":[1e+]}`, `{"input":[0x10]}`, `{"input":[1_0]}`,
	`{"input":[NaN]}`, `{"input":[Infinity]}`, `{"input":[-Infinity]}`, `{"input":[nan]}`,
	`{"input":[1 2]}`, `{"input":[1,]}`, `{"input":[,1]}`, `{"input":[1,,2]}`,
	// Wrong types.
	`{"input":["1"]}`, `{"input":[true]}`, `{"input":[[1]]}`, `{"input":[{}]}`,
	`{"input":"x"}`, `{"input":1}`, `{"input":{}}`, `{"input":true}`,
	`{"inputs":[1]}`, `{"inputs":[[1],2]}`, `{"inputs":[[[1]]]}`, `{"inputs":["a"]}`, `{"inputs":{}}`,
	`{"device":1}`, `{"device":[]}`, `{"device":{}}`, `{"device":false}`,
	`[]`, `[1]`, `1`, `"s"`, `true`, `false`, `-`, `tru`,
	// Ragged and empty.
	`{"inputs":[[1,2,3],[4],[],[5,6]]}`, `{"inputs":[]}`, `{"inputs":[[]]}`, `{"input":[]}`, `{}`, ``, ` `,
	// Device strings.
	`{"device":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"device":"\u00e9\u4e16\ud83d\ude00"}`,
	`{"device":"\ud83d"}`, `{"device":"\ud83dx"}`, `{"device":"\ude00\ud83d"}`, `{"device":"\ud83d\u0041"}`, `{"device":"\ud83d\ud83d\ude00"}`,
	"{\"device\":\"\xff\xfe ok \xc3\"}", "{\"device\":\"é世\"}",
	`{"device":"\q"}`, `{"device":"\u12"}`, `{"device":"\u12G4"}`, `{"device":"\`, `{"device":"a`,
	"{\"device\":\"a\nb\"}", "{\"device\":\"a\x00b\"}", "{\"device\":\"\x7f\"}",
	"{\"de\xffvice\":\"d\",\"input\":[1]}",
	// Structure.
	`{"input":[1]`, `{"input":[1]}}`, `{"input":[1]} trailing`, `{"input":[1]}{"input":[2]}`,
	`{"input":[1],}`, `{,"input":[1]}`, `{"input" [1]}`, `{"input":}`, `{input:[1]}`, `{"input":[1] "device":"d"}`,
	`{"a":[1,2}`, `{"a":{"b":1]}`, `{"a":tru}`, `{"a":nul}`, `{"a":"\u00"}`,
	"\xef\xbb\xbf{\"input\":[1]}",
}

func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkInferBody decodes body as both request shapes through the codec
// and through encoding/json, and fails on any difference.
func checkInferBody(t *testing.T, body []byte) {
	t.Helper()
	var got, want InferRequest
	gotErr := decodeInferRequest(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("InferRequest %q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if gotErr == nil {
		if !sameRow(got.Input, want.Input) || got.Device != want.Device {
			t.Fatalf("InferRequest %q:\n codec %+v\n json  %+v", body, got, want)
		}
		if dev := PeekDevice(body); dev != got.Device {
			t.Fatalf("InferRequest %q: PeekDevice %q, decoded device %q", body, dev, got.Device)
		}
	}

	var gotB, wantB InferBatchRequest
	gotErr = decodeInferBatchRequest(body, &gotB)
	wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&wantB)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("InferBatchRequest %q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if gotErr == nil {
		same := len(gotB.Inputs) == len(wantB.Inputs) && gotB.Device == wantB.Device
		for i := 0; same && i < len(gotB.Inputs); i++ {
			same = sameRow(gotB.Inputs[i], wantB.Inputs[i])
		}
		if !same {
			t.Fatalf("InferBatchRequest %q:\n codec %+v\n json  %+v", body, gotB, wantB)
		}
		if dev := PeekDevice(body); dev != gotB.Device {
			t.Fatalf("InferBatchRequest %q: PeekDevice %q, decoded device %q", body, dev, gotB.Device)
		}
	}
}

// deepBody nests an unknown member's value depth arrays deep; the
// object itself is one more level.
func deepBody(depth int) []byte {
	return []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"input":[1]}`)
}

// The seeds, every truncation of every seed, and the nesting limit on
// both sides, through the differential check.
func TestInferBodyMatchesEncodingJSON(t *testing.T) {
	for _, seed := range wireSeeds {
		for cut := 0; cut <= len(seed); cut++ {
			checkInferBody(t, []byte(seed[:cut]))
		}
	}
	checkInferBody(t, deepBody(maxWireDepth-1))
	checkInferBody(t, deepBody(maxWireDepth))
	if err := decodeInferRequest(deepBody(maxWireDepth-1), new(InferRequest)); err != nil {
		t.Fatalf("nesting %d deep must decode: %v", maxWireDepth, err)
	}
	if err := decodeInferRequest(deepBody(maxWireDepth), new(InferRequest)); err == nil {
		t.Fatalf("nesting %d deep must be an error", maxWireDepth+1)
	}
}

func FuzzInferBody(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkInferBody(t, body) })
}

// checkPeekDevice compares PeekDevice with json.Unmarshal on the
// bodies Unmarshal accepts; on the rest it must only not panic.
func checkPeekDevice(t *testing.T, body []byte) {
	t.Helper()
	got := PeekDevice(body)
	var want struct{ Device string }
	if err := json.Unmarshal(body, &want); err == nil && got != want.Device {
		t.Fatalf("PeekDevice(%q) = %q, json.Unmarshal gives %q", body, got, want.Device)
	}
}

func TestPeekDeviceMatchesEncodingJSON(t *testing.T) {
	for _, seed := range wireSeeds {
		for cut := 0; cut <= len(seed); cut++ {
			checkPeekDevice(t, []byte(seed[:cut]))
		}
	}
}

// PeekDevice rules a body out by the absence of 'v', 'V' and '\\'. That
// is sound only while those two letters are all that folds to 'v'.
func TestOnlyVFoldsToV(t *testing.T) {
	for r := unicode.SimpleFold('v'); r != 'v'; r = unicode.SimpleFold(r) {
		if r != 'V' {
			t.Fatalf("%q folds to 'v': PeekDevice's byte search would miss a key spelled with it", r)
		}
	}
	for _, body := range []string{`{"de\u0076ice":"d"}`, `{"DE\u0056ICE":"d"}`, `{"DEVICE":"d"}`} {
		if got := PeekDevice([]byte(body)); got != "d" {
			t.Fatalf("PeekDevice(%s) = %q, want d", body, got)
		}
	}
}

func FuzzPeekDevice(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkPeekDevice(t, body) })
}

// edgeFloats are the values whose text form has a corner: both zeros,
// the subnormal and normal limits, the two format cutoffs from either
// side, 17-digit values, integers past 2^53.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, -2.5e-7,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
	math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32,
	1e-6, math.Nextafter(1e-6, 0), 9.999999e-7, 1e-7, 1e21, math.Nextafter(1e21, 0), 1e20, 1e22, 1.5e300,
	0.30000000000000004, 5e-324, 123456789.12345678, 9007199254740993, 1 << 62,
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return rng.NormFloat64()
	case 1:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 2:
		return float64(rng.Intn(2001) - 1000)
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randomRow(rng *rand.Rand) []float64 {
	if rng.Intn(16) == 0 {
		return nil
	}
	row := make([]float64, rng.Intn(9))
	for i := range row {
		row[i] = randomFloat(rng)
	}
	return row
}

var edgeDevices = []string{
	"", "fridge", "a\"b\\c/d", "\b\f\n\r\t\x00\x1f\x7f", "<script>&amp;</script>", "é世😀",
	"line\u2028sep\u2029", "\xff\xfebad\xc3", "\xed\xa0\x80", strings.Repeat("x", 300),
}

func randomDevice(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return edgeDevices[rng.Intn(len(edgeDevices))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// The frame carries what JSON carries: a request the client frames
// decodes on the replica to the rows and device that json.Marshal's
// encoding of the same request decodes to, bit for bit, and the router
// peeks the device the replica decodes.
func TestInferEncoderMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	check := func(input []float64, inputs [][]float64, device string) {
		t.Helper()
		frame, err := appendFrame(nil, device, input)
		if err != nil {
			t.Fatal(err)
		}
		var got, want InferRequest
		if err := decodeFrameRequest(frame, &got); err != nil {
			t.Fatalf("frame of %v, %q: %v", input, device, err)
		}
		body, err := json.Marshal(InferRequest{Input: input, Device: device})
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeInferRequest(body, &want); err != nil {
			t.Fatal(err)
		}
		if !sameRow(got.Input, want.Input) || got.Device != want.Device {
			t.Fatalf("InferRequest(%v, %q):\n frame %+v\n json  %+v", input, device, got, want)
		}
		checkFrame(t, frame)

		if frame, err = appendFrame(nil, device, inputs...); err != nil {
			t.Fatal(err)
		}
		var gotB InferBatchRequest
		if err := decodeFrame(frame, &gotB); err != nil {
			t.Fatalf("frame of %v, %q: %v", inputs, device, err)
		}
		if gotB.Device != want.Device || len(gotB.Inputs) != len(inputs) {
			t.Fatalf("InferBatchRequest(%v, %q) decoded as %+v", inputs, device, gotB)
		}
		for i := range inputs {
			if !sameRow(gotB.Inputs[i], inputs[i]) {
				t.Fatalf("InferBatchRequest row %d: %v decoded as %v", i, inputs[i], gotB.Inputs[i])
			}
		}
		checkFrame(t, frame)
	}
	check(nil, nil, "")
	check([]float64{}, [][]float64{}, "d")
	check(edgeFloats, [][]float64{edgeFloats, nil, {}, edgeFloats[:3]}, "d")
	for _, dev := range edgeDevices {
		check([]float64{1}, [][]float64{{1}}, dev)
	}
	for i := 0; i < 2000; i++ {
		var inputs [][]float64
		if rng.Intn(16) != 0 {
			inputs = make([][]float64, rng.Intn(5))
			for j := range inputs {
				inputs[j] = randomRow(rng)
			}
		}
		check(randomRow(rng), inputs, randomDevice(rng))
	}
}

// NaN and the infinities have no JSON form, and the frame takes none
// either: the client refuses them before any request with the error
// json.Marshal's encoder gave, and a replica answers a frame that
// carries one with a 400.
func TestInferEncoderRejectsNonFinite(t *testing.T) {
	svc, err := core.NewService(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s := NewServer(svc)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		row := []float64{1, f}
		if _, err := json.Marshal(InferRequest{Input: row}); err == nil {
			t.Fatalf("json.Marshal accepted %v", f)
		}
		if _, err := appendFrame(nil, "", []float64{0}, row); err == nil || !strings.Contains(err.Error(), "unsupported value") {
			t.Fatalf("appendFrame(%v) = %v; want an unsupported-value error", f, err)
		}
		c := NewClient("http://127.0.0.1:0")
		if _, err := c.Infer(t.Context(), "m", row); err == nil || !strings.Contains(err.Error(), "encoding request") {
			t.Fatalf("Client.Infer(%v) = %v; want an encoding error before any request", f, err)
		}
		// The frame of a finite row, its last value overwritten.
		frame, err := appendFrame(nil, "", []float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(frame[len(frame)-8:], math.Float64bits(f))
		for _, path := range []string{"/v1/models/m/infer", "/v1/models/m/infer-batch"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(frame))
			req.Header.Set("Content-Type", FrameType)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "unsupported value") {
				t.Fatalf("%s with %v in a frame: %d %s, want 400", path, f, rec.Code, rec.Body)
			}
		}
	}
}

// A device tag longer than the frame's u16 length is refused before any
// request, not cut short into another device's tag.
func TestFrameRefusesLongDevice(t *testing.T) {
	long := strings.Repeat("d", 1<<16)
	if _, err := appendFrame(nil, long[1:], []float64{1}); err != nil {
		t.Fatalf("a %d-byte tag: %v", len(long)-1, err)
	}
	c := NewClient("http://127.0.0.1:0")
	if _, err := c.InferObserved(t.Context(), "m", long, []float64{1}); err == nil || !strings.Contains(err.Error(), "encoding request") {
		t.Fatalf("InferObserved with a %d-byte tag = %v; want an encoding error before any request", len(long), err)
	}
}

// frameHeader is the header service.Client sends a frame with.
var frameHeader = http.Header{"Content-Type": {FrameType}}

// checkFrame decodes body as a request frame and, when it is accepted,
// holds the result to what encoding/json gives for the same request: the
// frame's rows and its raw device tag, put through json.Marshal and the
// JSON decoder, come back bit for bit. What the decoder accepts it
// allocates in proportion to the body, the router peeks the device the
// decoder gives, and the frame is the one appendFrame writes.
func checkFrame(t *testing.T, body []byte) {
	t.Helper()
	var req InferBatchRequest
	if decodeFrame(body, &req) != nil {
		return
	}
	rows, device := req.Inputs, req.Device
	if dev := RequestDevice(frameHeader, body); dev != device {
		t.Fatalf("frame %q: RequestDevice %q, decoded device %q", body, dev, device)
	}
	values := 0
	for _, row := range rows {
		values += len(row)
	}
	if 4*len(rows) > len(body) || 8*values > len(body) {
		t.Fatalf("frame of %d bytes decoded into %d rows of %d values", len(body), len(rows), values)
	}
	raw := string(body[4 : 4+int(binary.LittleEndian.Uint16(body[2:]))])
	if again, err := appendFrame(nil, raw, rows...); err != nil || !bytes.Equal(again, body) {
		t.Fatalf("frame %q re-encodes as %q (%v)", body, again, err)
	}
	js, err := json.Marshal(InferBatchRequest{Inputs: rows, Device: raw})
	if err != nil {
		t.Fatalf("frame %q: json.Marshal: %v", body, err)
	}
	var want InferBatchRequest
	if err := decodeInferBatchRequest(js, &want); err != nil {
		t.Fatalf("frame %q as JSON %s: %v", body, js, err)
	}
	same := len(rows) == len(want.Inputs) && device == want.Device
	for i := 0; same && i < len(rows); i++ {
		same = sameRow(rows[i], want.Inputs[i])
	}
	if !same {
		t.Fatalf("frame %q:\n frame %v %q\n json  %v %q", body, rows, device, want.Inputs, want.Device)
	}
}

// frameSeeds are request frames to start fuzzing from: well formed ones
// over the edge values and devices, and each of them cut short, grown by
// a byte, and with its row count raised.
func frameSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	add := func(device string, rows ...[]float64) {
		frame, err := appendFrame(nil, device, rows...)
		if err != nil {
			tb.Fatal(err)
		}
		long := append(bytes.Clone(frame), 0)
		more := bytes.Clone(frame)
		more[4+len(device)]++
		seeds = append(seeds, frame, frame[:len(frame)-1], long, more)
	}
	add("")
	add("", []float64{})
	add("fridge", edgeFloats, nil, []float64{1, 2})
	for _, dev := range edgeDevices {
		add(dev, []float64{1})
	}
	return append(seeds, nil, []byte("E"), []byte("E\x01\x00\x00\xff\xff\xff\xff"), []byte(`{"inputs":[[1]]}`))
}

func FuzzRowsFrame(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkFrame(t, body) })
}

// A frame's counts are checked against its length before anything is
// allocated: a header that claims 2^32 - 1 rows, or rows 2^32 - 1 wide,
// costs the decoder no more than the error it returns.
func TestFrameCountsCheckedBeforeAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	manyRows := []byte{'E', 1, 0, 0, 0xff, 0xff, 0xff, 0xff}
	wideRows := append(bytes.Clone(manyRows[:4]), 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	for _, body := range [][]byte{manyRows, wideRows} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeFrame(body, new(InferBatchRequest))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("frame %q accepted", body)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<10 {
			t.Fatalf("frame %q: %d bytes allocated to refuse it", body, n)
		}
	}
}

// The device tag is coerced to valid UTF-8 as the JSON decoder coerces
// one, a U+FFFD per byte that is not UTF-8, so a device keeps its
// tracker and rendezvous owner whichever format it came in.
func TestFrameDeviceCoercedLikeJSON(t *testing.T) {
	for _, dev := range append(edgeDevices, "\xc3(", "a\xf0\x9f\x98", "\xed\xbf\xbf", "\x80\x80") {
		frame, err := appendFrame(nil, dev, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		var got, want InferRequest
		if err := decodeFrameRequest(frame, &got); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(InferRequest{Input: []float64{1}, Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeInferRequest(body, &want); err != nil {
			t.Fatal(err)
		}
		peeked, peekedJSON := RequestDevice(frameHeader, frame), RequestDevice(http.Header{}, body)
		if got.Device != want.Device || peeked != want.Device || peekedJSON != want.Device {
			t.Fatalf("device %q: frame %q (peeked %q), JSON %q (peeked %q)", dev, got.Device, peeked, want.Device, peekedJSON)
		}
	}
}

// checkAnswers holds the answer frame to a round trip: what the client
// accepts, the replica writes back byte for byte; and a single infer
// takes exactly one answer.
func checkAnswers(t *testing.T, body []byte) {
	t.Helper()
	var got InferBatchResponse
	if decodeAnswers(body, &got) != nil {
		return
	}
	if again := appendAnswers(nil, got.Results); !bytes.Equal(again, body) {
		t.Fatalf("answers %q re-encode as %q", body, again)
	}
	if err := decodeAnswers(body, new(InferResponse)); (err == nil) != (len(got.Results) == 1) {
		t.Fatalf("answers %q: %d as a batch, %v as one", body, len(got.Results), err)
	}
}

func FuzzAnswersFrame(f *testing.F) {
	for _, results := range [][]InferResponse{
		nil,
		{{Pred: -1, Stages: 0, Expired: true}},
		{{Pred: 2, Conf: 0.97, Stages: 3, LatencyMS: 1.25}, {Pred: math.MaxInt, Conf: math.Copysign(0, -1), Stages: math.MaxInt32, LatencyMS: math.NaN()}},
		{{Pred: math.MinInt, Conf: math.SmallestNonzeroFloat64, Stages: 1, LatencyMS: math.Inf(1)}},
	} {
		body := appendAnswers(nil, results)
		var back InferBatchResponse
		if err := decodeAnswers(body, &back); err != nil || len(back.Results) != len(results) {
			f.Fatalf("answers %+v decoded as %+v (%v)", results, back.Results, err)
		}
		for i, a := range results {
			b := back.Results[i]
			if a.Pred != b.Pred || a.Stages != b.Stages || a.Expired != b.Expired ||
				math.Float64bits(a.Conf) != math.Float64bits(b.Conf) || math.Float64bits(a.LatencyMS) != math.Float64bits(b.LatencyMS) {
				f.Fatalf("answer %d: %+v decoded as %+v", i, a, b)
			}
		}
		f.Add(body)
		f.Add(body[:len(body)-1])
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkAnswers(t, body) })
}

// A decoded batch is one backing array cut into rows: each row starts
// where the one before ends, and none has capacity to grow into the
// next.
func TestDecodedRowsShareOneBackingArray(t *testing.T) {
	var req InferBatchRequest
	if err := decodeInferBatchRequest([]byte(`{"inputs":[[1,2,3],[4,5,6],[7,8,9]],"device":"d"}`), &req); err != nil {
		t.Fatal(err)
	}
	base := reflect.ValueOf(req.Inputs[0]).Pointer()
	for i, row := range req.Inputs {
		if cap(row) != len(row) {
			t.Fatalf("row %d has %d spare capacity: an append would overwrite the next row", i, cap(row)-len(row))
		}
		if at := reflect.ValueOf(row).Pointer(); at != base+uintptr(i*3*8) {
			t.Fatalf("row %d is not at offset %d of the first row's array", i, i*3)
		}
	}
}

// The row headers are sized by what the body proves: a narrow first row
// before one very wide one must not buy a header per number.
func TestDecodeBatchHeadersBoundedByRows(t *testing.T) {
	body := `{"inputs":[[1],[0` + strings.Repeat(",0", 1<<16) + `]]}`
	var req InferBatchRequest
	if err := decodeInferBatchRequest([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Inputs) != 2 || len(req.Inputs[1]) != 1<<16+1 {
		t.Fatalf("decoded %d rows, second of %d", len(req.Inputs), len(req.Inputs[1]))
	}
	if cap(req.Inputs) > 3 {
		t.Fatalf("%d row headers allocated for a body with three brackets", cap(req.Inputs))
	}
}

// The decoder's number scan takes every form strconv prints a float64
// in, whole, with strconv.ParseFloat's value and its verdict on range.
func TestNumberMatchesStrconv(t *testing.T) {
	check := func(text string) {
		t.Helper()
		want, err := strconv.ParseFloat(text, 64)
		s := wireScan{b: []byte(text)}
		got, ok, inRange := s.number()
		if !ok || s.i != len(text) {
			t.Fatalf("number(%q) stopped at byte %d (ok=%v)", text, s.i, ok)
		}
		if inRange != (err == nil) || inRange && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("number(%q) = %v (in range %v), strconv.ParseFloat gives %v (%v)", text, got, inRange, want, err)
		}
	}
	for _, f := range edgeFloats {
		check(strconv.FormatFloat(f, 'f', -1, 64))
		check(strconv.FormatFloat(f, 'e', -1, 64))
	}
	for _, text := range []string{
		"0", "-0", "0.0", "-0.0e5", "0e999", "1e999", "-1e999", "1e-999", "1E+22", "1e23",
		"9007199254740993", "18446744073709551616", "1234567890123456789012345678901234567890",
		"0.1000000000000000055511151231257827", "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"1.7976931348623157e308", "1.7976931348623159e308", "1e10000000000", "1e-10000000000",
	} {
		check(text)
	}
}
