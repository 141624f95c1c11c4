package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"eugene/internal/service"
)

// BenchmarkWirePath sends 64 × 32 batches, the serving shape of
// cmd/eugenebench's ladder, down the whole wire path over loopback: service.Client encodes, the router
// reads, peeks and forwards, one replica decodes, serves and answers,
// and the answer streams back through the router. The model behind it
// is tiny, so the time is the wire path's. Bytes per second are request
// body bytes.
func BenchmarkWirePath(b *testing.B) {
	snap, input, err := trainSnapshot(32, 33)
	if err != nil {
		b.Fatal(err)
	}
	f := newTestFleet(b, 1, func(c *Config) { c.Logf = func(string, ...any) {} })
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = make([]float64, len(input))
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	var bodyLen int
	for _, row := range inputs {
		bodyLen += 20 * len(row) // about what a float64 takes as text
	}
	if _, err := f.cli.InferBatch(ctx, "m", inputs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bodyLen))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.cli.InferBatch(ctx, "m", inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameAndJSONRouteAlike: through the router, the frame
// service.Client sends and the JSON a third party sends are the same
// request. A device tag reaches the same rendezvous owner and the same
// tracker in either format, invalid UTF-8 included; untagged rows get
// bit-identical answers; and a JSON request is answered in JSON, a frame
// in a frame.
func TestFrameAndJSONRouteAlike(t *testing.T) {
	snap, _, input := testSnapshots(t)
	f := newTestFleet(t, 2, nil)
	ctx := context.Background()
	if err := f.cli.PutSnapshot(ctx, "m", snap); err != nil {
		t.Fatalf("PutSnapshot: %v", err)
	}
	// post sends v as JSON the way curl -d does, and returns the answer's
	// media type with its body decoded into out.
	post := func(path string, v, out any) string {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(f.rsrv.URL+path, "application/x-www-form-urlencoded", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s (%v)", path, resp.StatusCode, raw, err)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s answered %q: %v", path, raw, err)
		}
		return resp.Header.Get("Content-Type")
	}

	// Six devices: a frame the router failed to pin would reach the owner
	// of each by chance one time in 2^6.
	for _, dev := range []string{"fridge", "th\xffermo\xc3", "lamp-é", "door", "oven", "tv"} {
		if _, err := f.cli.InferObserved(ctx, "m", dev, input); err != nil {
			t.Fatalf("InferObserved(%q): %v", dev, err)
		}
		var one service.InferResponse
		if ct := post("/v1/models/m/infer", service.InferRequest{Input: input, Device: dev}, &one); ct != "application/json" {
			t.Fatalf("a JSON infer was answered as %q", ct)
		}
		var batch service.InferBatchResponse
		if ct := post("/v1/models/m/infer-batch", service.InferBatchRequest{Inputs: [][]float64{input, input}, Device: dev}, &batch); ct != "application/json" {
			t.Fatalf("a JSON infer-batch was answered as %q", ct)
		}
		// The tracker's name is the tag as both decoders coerce it.
		var name string
		if raw, err := json.Marshal(dev); err != nil || json.Unmarshal(raw, &name) != nil {
			t.Fatal(err)
		}
		var counts []int
		for _, r := range f.replicas {
			counts = append(counts, r.observed(name))
		}
		// A batch's rows of one class are one observation.
		if max(counts[0], counts[1]) != 3 || min(counts[0], counts[1]) != 0 {
			t.Fatalf("device %q: observations per replica %v, want all 3 (one frame, two JSON requests) on one", dev, counts)
		}
	}

	rng := rand.New(rand.NewSource(29))
	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = make([]float64, len(input))
		for j := range inputs[i] {
			inputs[i][j] = input[j] + rng.NormFloat64()
		}
	}
	framed, err := f.cli.InferBatch(ctx, "m", inputs)
	if err != nil {
		t.Fatal(err)
	}
	var js service.InferBatchResponse
	post("/v1/models/m/infer-batch", service.InferBatchRequest{Inputs: inputs}, &js)
	if len(js.Results) != len(framed) {
		t.Fatalf("%d JSON answers, %d framed", len(js.Results), len(framed))
	}
	for i, a := range framed {
		b := js.Results[i]
		if a.Pred != b.Pred || a.Stages != b.Stages || a.Expired || b.Expired || math.Float64bits(a.Conf) != math.Float64bits(b.Conf) {
			t.Fatalf("row %d: framed %+v, JSON %+v", i, a, b)
		}
	}
}
