package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
// features, and one encoded wireRows-row batch for it.
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
	body, err := appendInferBatchRequest(nil, wireBatch(), "")
	if err != nil {
		tb.Fatal(err)
	}
	return NewServer(svc), body
}

// serveBatch answers one infer-batch request in process. reader and rec
// are reused so that the handler's own allocations are all that is
// counted.
func serveBatch(tb testing.TB, s *Server, body []byte, reader *bytes.Reader, rec *httptest.ResponseRecorder) {
	reader.Reset(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/models/m/infer-batch", reader)
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
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	const budget = 43
	s, body := wireServer(t)
	reader, rec := bytes.NewReader(nil), httptest.NewRecorder()
	got := testing.AllocsPerRun(50, func() { serveBatch(t, s, body, reader, rec) })
	t.Logf("%.1f allocs per %d × %d infer-batch", got, wireRows, wireCols)
	if got > budget {
		t.Errorf("%.1f allocs per %d × %d infer-batch, budget %d — the codec or the body pool regressed", got, wireRows, wireCols, budget)
	}
}

// TestClientInferAllocs pins what Client.Infer (one row) and
// Client.InferBatch (64 × 32) allocate in a round trip over loopback to
// a server that reads the body and answers a canned response: the
// client.allocs_per_row ledger row's path, with the server's net/http
// allocations counted too. The limits are the counts measured before
// every Client call went through one attempt function: 90 for Infer and
// 108 for InferBatch (linux/amd64, go1.24; the unified path measures 89
// and 107).
func TestClientInferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	one, err := json.Marshal(InferResponse{Pred: 1, Conf: 0.9, Stages: 3, LatencyMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(InferBatchResponse{Results: make([]InferResponse, wireRows)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := one
		if strings.HasSuffix(r.URL.Path, "/infer-batch") {
			resp = batch
		}
		if _, err := io.Copy(io.Discard, r.Body); err == nil {
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
		{"Infer", 90, func() error { _, err := c.Infer(ctx, "m", row); return err }},
		{"InferBatch", 108, func() error { _, err := c.InferBatch(ctx, "m", inputs); return err }},
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
// batch: the decoder makes the row headers and the one backing array,
// the encoder and the untagged peek make nothing.
func TestInferCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	inputs := wireBatch()
	body, err := appendInferBatchRequest(nil, inputs, "")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(body))
	for _, tc := range []struct {
		name  string
		limit float64
		run   func()
	}{
		{"encode", 0, func() { buf, _ = appendInferBatchRequest(buf[:0], inputs, "") }},
		{"decode", 2, func() {
			var req InferBatchRequest
			if err := decodeInferBatchRequest(body, &req); err != nil {
				t.Fatal(err)
			}
		}},
		{"peek", 0, func() { _ = PeekDevice(body) }},
	} {
		if got := testing.AllocsPerRun(20, tc.run); got > tc.limit {
			t.Errorf("%s: %.1f allocs per %d × %d batch, want at most %.0f", tc.name, got, wireRows, wireCols, tc.limit)
		}
	}
}

// BenchmarkWirePath times what the wire path does to one 64 × 32 batch,
// piece by piece: the client's encode, the replica's decode, the
// router's peek with and without a device tag, and the replica's whole
// handler with a small model behind it. Bytes per second are body
// bytes.
func BenchmarkWirePath(b *testing.B) {
	inputs := wireBatch()
	body, err := appendInferBatchRequest(nil, inputs, "")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		buf := make([]byte, 0, len(body))
		for i := 0; i < b.N; i++ {
			if buf, err = appendInferBatchRequest(buf[:0], inputs, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req InferBatchRequest
			if err := decodeInferBatchRequest(body, &req); err != nil || len(req.Inputs) != wireRows {
				b.Fatal(err, len(req.Inputs))
			}
		}
	})
	// The router's peek: an untagged batch is ruled out by three byte
	// searches, a tagged one is scanned to its end (the tag may repeat).
	tagged, err := appendInferBatchRequest(nil, inputs, "fridge")
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		body       []byte
	}{{"peek", "", body}, {"peek_tagged", "fridge", tagged}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(tc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if dev := PeekDevice(tc.body); dev != tc.want {
					b.Fatal(dev)
				}
			}
		})
	}
	b.Run("handler", func(b *testing.B) {
		s, body := wireServer(b)
		reader, rec := bytes.NewReader(nil), httptest.NewRecorder()
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveBatch(b, s, body, reader, rec)
		}
	})
}
