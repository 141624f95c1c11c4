package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"eugene/internal/core"
	"eugene/internal/dataset"
)

// The serving shape of cmd/eugenebench's ladder: 64 rows of 32 features.
const (
	wireRows = 64
	wireCols = 32
)

func wireBatch() [][]float64 {
	rng := rand.New(rand.NewSource(7))
	inputs := make([][]float64, wireRows)
	for i := range inputs {
		inputs[i] = make([]float64, wireCols)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	return inputs
}

// wireServer is a replica serving a small model that takes wireCols
// features, and one wireRows-row batch for it as JSON.
func wireServer(tb testing.TB) (*Server, []byte) {
	tb.Helper()
	svc, err := core.NewService(core.Config{Workers: 1, Deadline: time.Minute, QueueDepth: 256, Lookahead: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	train, _, err := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 3, Dim: wireCols, ModesPerClass: 1, TrainSize: 60, TestSize: 3,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}, 5)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.DefaultTrainOptions(wireCols, 3)
	opts.Model.Hidden = 8
	opts.Train.Epochs = 1
	if _, err := svc.Train("m", train, opts); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(InferBatchRequest{Inputs: wireBatch()})
	if err != nil {
		tb.Fatal(err)
	}
	return NewServer(svc), body
}

// serveBatch answers one infer-batch request of media type contentType
// in process. reader and rec are reused so that the handler's own
// allocations are all that is counted.
func serveBatch(tb testing.TB, s *Server, contentType string, body []byte, reader *bytes.Reader, rec *httptest.ResponseRecorder) {
	reader.Reset(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/models/m/infer-batch", reader)
	req.Header.Set("Content-Type", contentType)
	rec.Body.Reset()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("handler answered %d: %s", rec.Code, rec.Body.String())
	}
}

// TestInferBatchHandlerAllocs pins what one 64 × 32 infer-batch costs
// in allocations from Server.ServeHTTP down, the test's own request
// included: the service.allocs_per_row ledger row times 64. With
// encoding/json decoding into [][]float64 the figure was ≈ 430 (one
// row slice and its regrowths per row, the decoder's buffer growing to
// the body); the budget is an order of magnitude under it, and the
// measured value less than half the budget.
func TestInferBatchHandlerAllocs(t *testing.T) {
	s, body := wireServer(t)
	checkHandlerAllocs(t, s, "application/json", body)
}

// TestInferBatchFrameHandlerAllocs is TestInferBatchHandlerAllocs for the
// same batch as a frame, answered in a frame, at the same budget.
func TestInferBatchFrameHandlerAllocs(t *testing.T) {
	s, _ := wireServer(t)
	body, err := appendFrame(nil, "", wireBatch()...)
	if err != nil {
		t.Fatal(err)
	}
	checkHandlerAllocs(t, s, FrameType, body)
}

func checkHandlerAllocs(t *testing.T, s *Server, contentType string, body []byte) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	const budget = 43
	reader, rec := bytes.NewReader(nil), httptest.NewRecorder()
	got := testing.AllocsPerRun(50, func() { serveBatch(t, s, contentType, body, reader, rec) })
	t.Logf("%s: %.1f allocs per %d × %d infer-batch", contentType, got, wireRows, wireCols)
	if got > budget {
		t.Errorf("%s: %.1f allocs per %d × %d infer-batch, budget %d — the codec or the body pool regressed", contentType, got, wireRows, wireCols, budget)
	}
}

// TestClientInferAllocs pins what Client.Infer (one row) and
// Client.InferBatch (64 × 32) allocate in a round trip over loopback to
// a server that reads the body and answers a canned answer frame: the
// client.allocs_per_row ledger row's path, with the server's net/http
// allocations counted too. The limits are the counts measured with
// frames both ways, 89 for Infer and 89 for InferBatch (linux/amd64,
// go1.24); with JSON both ways they were 89 and 107.
func TestClientInferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	one := appendAnswers(nil, []InferResponse{{Pred: 1, Conf: 0.9, Stages: 3, LatencyMS: 1}})
	batch := appendAnswers(nil, make([]InferResponse, wireRows))
	// Header values are built once, so that what is counted is the
	// client's and net/http's, not the fake server's.
	frameType := []string{FrameType}
	lengths := map[int][]string{len(one): {strconv.Itoa(len(one))}, len(batch): {strconv.Itoa(len(batch))}}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := one
		if strings.HasSuffix(r.URL.Path, "/infer-batch") {
			resp = batch
		}
		if _, err := io.Copy(io.Discard, r.Body); err == nil {
			w.Header()["Content-Type"] = frameType
			w.Header()["Content-Length"] = lengths[len(resp)]
			_, _ = w.Write(resp)
		}
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	row, inputs := wireBatch()[0], wireBatch()
	for _, tc := range []struct {
		name  string
		limit float64
		run   func() error
	}{
		{"Infer", 89, func() error { _, err := c.Infer(ctx, "m", row); return err }},
		{"InferBatch", 89, func() error { _, err := c.InferBatch(ctx, "m", inputs); return err }},
	} {
		got := testing.AllocsPerRun(50, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs per call", tc.name, got)
		if got > tc.limit {
			t.Errorf("%s: %.1f allocs per call, want at most %.0f", tc.name, got, tc.limit)
		}
	}
}

// TestInferCodecAllocs pins the codec's own allocations on a 64 × 32
// batch: either decoder makes the row headers and the one backing
// array, the frame encoder and either untagged peek make nothing.
func TestInferCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	inputs := wireBatch()
	body, err := json.Marshal(InferBatchRequest{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := appendFrame(nil, "", inputs...)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(frame))
	for _, tc := range []struct {
		name  string
		limit float64
		run   func()
	}{
		{"decode", 2, func() {
			var req InferBatchRequest
			if err := decodeInferBatchRequest(body, &req); err != nil {
				t.Fatal(err)
			}
		}},
		{"peek", 0, func() { _ = PeekDevice(body) }},
		{"frame encode", 0, func() { buf, _ = appendFrame(buf[:0], "", inputs...) }},
		{"frame decode", 2, func() {
			var req InferBatchRequest
			if err := decodeFrame(frame, &req); err != nil {
				t.Fatal(err)
			}
		}},
		{"frame peek", 0, func() { _ = RequestDevice(frameHeader, frame) }},
	} {
		if got := testing.AllocsPerRun(20, tc.run); got > tc.limit {
			t.Errorf("%s: %.1f allocs per %d × %d batch, want at most %.0f", tc.name, got, wireRows, wireCols, tc.limit)
		}
	}
}

// BenchmarkWirePath times what the wire path does to one 64 × 32 batch,
// piece by piece: the client's frame encode, the replica's decode of a
// frame and of the same batch as JSON, the router's peek of either, and
// the replica's whole handler for either with a small model behind it.
// Bytes per second are body bytes.
func BenchmarkWirePath(b *testing.B) {
	inputs := wireBatch()
	body, err := json.Marshal(InferBatchRequest{Inputs: inputs})
	if err != nil {
		b.Fatal(err)
	}
	frame, err := appendFrame(nil, "", inputs...)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		buf := make([]byte, 0, len(frame))
		for i := 0; i < b.N; i++ {
			if buf, err = appendFrame(buf[:0], "", inputs...); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tc := range []struct {
		name   string
		body   []byte
		decode func([]byte, *InferBatchRequest) error
	}{{"decode", body, decodeInferBatchRequest}, {"decode_frame", frame, decodeFrame}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req InferBatchRequest
				if err := tc.decode(tc.body, &req); err != nil || len(req.Inputs) != wireRows {
					b.Fatal(err, len(req.Inputs))
				}
			}
		})
	}
	// The router's peek: an untagged JSON batch is ruled out by three
	// byte searches, a tagged one is scanned to its end (the tag may
	// repeat); a frame's tag is read at its offset.
	tagged, err := json.Marshal(InferBatchRequest{Inputs: inputs, Device: "fridge"})
	if err != nil {
		b.Fatal(err)
	}
	taggedFrame, err := appendFrame(nil, "fridge", inputs...)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
		header     http.Header
	}{
		{"peek", "", body, http.Header{}},
		{"peek_tagged", "fridge", tagged, http.Header{}},
		{"peek_frame_tagged", "fridge", taggedFrame, frameHeader},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if dev := RequestDevice(tc.header, tc.body); dev != tc.want {
					b.Fatal(dev)
				}
			}
		})
	}
	for _, tc := range []struct {
		name, contentType string
		body              []byte
	}{{"handler", "application/json", body}, {"handler_frame", FrameType, frame}} {
		b.Run(tc.name, func(b *testing.B) {
			s, _ := wireServer(b)
			reader, rec := bytes.NewReader(nil), httptest.NewRecorder()
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveBatch(b, s, tc.contentType, tc.body, reader, rec)
			}
		})
	}
}
