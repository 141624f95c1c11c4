package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eugene/internal/core"
	"eugene/internal/dataset"
)

func testServer(t *testing.T) (*Client, *dataset.Set, *dataset.Set) {
	t.Helper()
	svc, err := core.NewService(core.Config{
		Workers: 2, Deadline: time.Second, QueueDepth: 32, Lookahead: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	cfg := dataset.SynthConfig{
		Classes: 3, Dim: 10, ModesPerClass: 1,
		TrainSize: 200, TestSize: 100,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}
	train, test, err := dataset.SynthCIFAR(cfg, 61)
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(ts.URL), train, test
}

func trainDemo(t *testing.T, c *Client, train *dataset.Set) {
	t.Helper()
	resp, err := c.Train(context.Background(), "demo", TrainRequest{
		Data:    FromSet(train),
		Classes: 3,
		Hidden:  16,
		Blocks:  1,
		Epochs:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.StageAccs) != 3 {
		t.Fatalf("stage accs = %v", resp.StageAccs)
	}
	if resp.StageAccs[2] < 0.5 {
		t.Fatalf("final stage train accuracy %v too low", resp.StageAccs[2])
	}
}

func TestHealthAndModels(t *testing.T) {
	c, train, _ := testServer(t)
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatal(err)
	}
	models, err := c.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 0 {
		t.Fatalf("models before training = %v", models)
	}
	trainDemo(t, c, train)
	models, err = c.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0] != "demo" {
		t.Fatalf("models = %v", models)
	}
}

func TestEndToEndPipeline(t *testing.T) {
	c, train, test := testServer(t)
	trainDemo(t, c, train)
	if _, err := c.Calibrate(context.Background(), "demo", test); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildPredictor(context.Background(), "demo", train); err != nil {
		t.Fatal(err)
	}
	var right, total int
	for i := 0; i < 30; i++ {
		x, y := test.Sample(i)
		resp, err := c.Infer(context.Background(), "demo", x)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stages == 0 {
			t.Fatalf("request %d executed no stages", i)
		}
		total++
		if resp.Pred == y {
			right++
		}
	}
	if acc := float64(right) / float64(total); acc < 0.5 {
		t.Fatalf("served accuracy %v too low", acc)
	}
}

func TestInferBatchEndpoint(t *testing.T) {
	c, train, test := testServer(t)
	trainDemo(t, c, train)
	inputs := make([][]float64, 10)
	want := make([]int, len(inputs))
	for i := range inputs {
		inputs[i], want[i] = test.Sample(i)
	}
	results, err := c.InferBatch(context.Background(), "demo", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(inputs) {
		t.Fatalf("%d results for %d inputs", len(results), len(inputs))
	}
	var right int
	for i, r := range results {
		if r.Stages == 0 {
			t.Fatalf("batch item %d executed no stages", i)
		}
		if r.Pred == want[i] {
			right++
		}
	}
	if right == 0 {
		t.Fatal("batch never right")
	}
}

func TestInferBatchValidation(t *testing.T) {
	c, train, _ := testServer(t)
	trainDemo(t, c, train)
	if _, err := c.InferBatch(context.Background(), "demo", nil); err == nil {
		t.Fatal("expected empty-batch error")
	}
	if _, err := c.InferBatch(context.Background(), "demo", [][]float64{{1, 2}, {}}); err == nil {
		t.Fatal("expected empty-input error")
	}
	if _, err := c.InferBatch(context.Background(), "ghost", [][]float64{{1}}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("expected 404 error, got %v", err)
	}
	// Wrong input width must be a 400, not a worker panic.
	if _, err := c.InferBatch(context.Background(), "demo", [][]float64{{1, 2}}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("expected 400 width error, got %v", err)
	}
	if _, err := c.Infer(context.Background(), "demo", []float64{1, 2}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("expected 400 width error, got %v", err)
	}
}

func TestStatsEndpoint(t *testing.T) {
	c, train, test := testServer(t)
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 0 {
		t.Fatalf("stats before serving = %v", stats)
	}
	trainDemo(t, c, train)
	x, _ := test.Sample(0)
	if _, err := c.Infer(context.Background(), "demo", x); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InferBatch(context.Background(), "demo", [][]float64{x, x, x}); err != nil {
		t.Fatal(err)
	}
	stats, err = c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, ok := stats["demo"]
	if !ok {
		t.Fatalf("no stats for demo: %v", stats)
	}
	if st.Submitted != 4 || st.Answered != 4 {
		t.Fatalf("stats %+v, want 4 submitted and answered", st)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d with no traffic in flight", st.QueueDepth)
	}
}

func TestInferUnknownModelIs404(t *testing.T) {
	c, _, _ := testServer(t)
	_, err := c.Infer(context.Background(), "ghost", []float64{1, 2})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("expected 404 error, got %v", err)
	}
}

func TestTrainValidation(t *testing.T) {
	c, train, _ := testServer(t)
	// Bad class count.
	if _, err := c.Train(context.Background(), "bad", TrainRequest{
		Data: FromSet(train), Classes: 1,
	}); err == nil {
		t.Fatal("expected class-count error")
	}
	// Mismatched payload.
	if _, err := c.Train(context.Background(), "bad", TrainRequest{
		Data:    DataPayload{Dim: 4, X: []float64{1, 2}, Labels: []int{0}},
		Classes: 2,
	}); err == nil {
		t.Fatal("expected payload error")
	}
}

func TestInferValidation(t *testing.T) {
	c, train, _ := testServer(t)
	trainDemo(t, c, train)
	if _, err := c.Infer(context.Background(), "demo", nil); err == nil {
		t.Fatal("expected empty-input error")
	}
}

func TestDataPayloadRoundTrip(t *testing.T) {
	cfg := dataset.SynthConfig{
		Classes: 2, Dim: 3, ModesPerClass: 1,
		TrainSize: 5, TestSize: 2,
		NoiseLo: 0.1, NoiseHi: 0.2, Overlap: 0,
	}
	set, _, err := dataset.SynthCIFAR(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := FromSet(set)
	back, err := payload.ToSet()
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != set.Len() || back.X.Cols != set.X.Cols {
		t.Fatalf("round trip shape %dx%d", back.Len(), back.X.Cols)
	}
	for i := range set.X.Data {
		if back.X.Data[i] != set.X.Data[i] {
			t.Fatal("round trip data mismatch")
		}
	}
	// Invalid payloads.
	bad := DataPayload{Dim: 0}
	if _, err := bad.ToSet(); err == nil {
		t.Fatal("expected dim error")
	}
	bad = DataPayload{Dim: 2, X: []float64{1}, Labels: []int{0}}
	if _, err := bad.ToSet(); err == nil {
		t.Fatal("expected length error")
	}
}

func TestSnapshotEndpointRoundTrip(t *testing.T) {
	c, train, test := testServer(t)
	trainDemo(t, c, train)
	ctx := context.Background()
	raw, err := c.Snapshot(ctx, "demo", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("empty snapshot")
	}
	// Install it under a new name; both models answer identically.
	if err := c.PutSnapshot(ctx, "demo2", raw); err != nil {
		t.Fatal(err)
	}
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("models after install = %v", models)
	}
	for i := 0; i < 5; i++ {
		x, _ := test.Sample(i)
		a, err := c.Infer(ctx, "demo", append([]float64(nil), x...))
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Infer(ctx, "demo2", append([]float64(nil), x...))
		if err != nil {
			t.Fatal(err)
		}
		if a.Pred != b.Pred || a.Conf != b.Conf || a.Stages != b.Stages {
			t.Fatalf("sample %d: snapshot copy diverges: %+v vs %+v", i, a, b)
		}
	}
	// Unknown model → 404; garbage upload → 400.
	if _, err := c.Snapshot(ctx, "ghost", ""); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("expected 404, got %v", err)
	}
	if err := c.PutSnapshot(ctx, "bad", []byte("junk")); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("expected 400, got %v", err)
	}
}

func TestReduceEndpoint(t *testing.T) {
	c, train, test := testServer(t)
	trainDemo(t, c, train)
	ctx := context.Background()
	// Without an uploaded dataset the server reuses the retained train
	// set.
	resp, err := c.Reduce(ctx, "demo", ReduceRequest{Hot: []int{0, 2}, Hidden: 8, Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Hot) != 2 || resp.Params == 0 || len(resp.Snapshot) == 0 {
		t.Fatalf("reduce response %+v", resp)
	}
	sub, err := c.DecodeSubset(resp)
	if err != nil {
		t.Fatal(err)
	}
	var right, total int
	for i := 0; i < test.Len(); i++ {
		x, y := test.Sample(i)
		if y != 0 && y != 2 {
			continue
		}
		total++
		if pred, _, other := sub.Predict(x); !other && pred == y {
			right++
		}
	}
	if total == 0 || float64(right)/float64(total) < 0.5 {
		t.Fatalf("subset hot accuracy %d/%d too low", right, total)
	}
	// Explicit data works too.
	if _, err := c.Reduce(ctx, "demo", func() ReduceRequest {
		p := FromSet(train)
		return ReduceRequest{Data: &p, Hot: []int{1}, Hidden: 8, Epochs: 2}
	}()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reduce(ctx, "ghost", ReduceRequest{Hot: []int{0}}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("expected 404, got %v", err)
	}
}

// A request whose model shape implies more parameters than a snapshot
// carries is a 400 before anything is built, on every route that builds
// a model, and the replica goes on serving.
func TestOversizedModelShapesAre400(t *testing.T) {
	c, train, test := testServer(t)
	trainDemo(t, c, train)
	ctx := context.Background()
	if err := c.Observe(ctx, "fridge", "demo", 1, 400); err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 36
	x, _ := test.Sample(0)
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"train hidden", func() error {
			_, err := c.Train(ctx, "big", TrainRequest{Data: FromSet(train), Classes: 3, Hidden: huge})
			return err
		}},
		{"train stages", func() error {
			_, err := c.Train(ctx, "big", TrainRequest{Data: FromSet(train), Classes: 3, Stages: huge})
			return err
		}},
		{"train blocks", func() error {
			_, err := c.Train(ctx, "big", TrainRequest{Data: FromSet(train), Classes: 3, Blocks: huge})
			return err
		}},
		{"reduce hidden", func() error {
			_, err := c.Reduce(ctx, "demo", ReduceRequest{Hot: []int{0}, Hidden: huge, Epochs: 1})
			return err
		}},
		{"subset-model hidden", func() error {
			_, err := c.SubsetModel(ctx, "fridge", huge, 1, "")
			return err
		}},
	} {
		if err := tc.call(); err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "parameters") {
			t.Fatalf("%s: expected a 400 naming the parameter count, got %v", tc.name, err)
		}
		if _, err := c.Infer(ctx, "demo", append([]float64(nil), x...)); err != nil {
			t.Fatalf("after %s: %v", tc.name, err)
		}
	}
}

func TestDeviceEndpointsEdgeCacheLoop(t *testing.T) {
	c, train, test := testServer(t)
	trainDemo(t, c, train)
	ctx := context.Background()

	// Unknown device → 404; subset before decision → conflict.
	if _, err := c.CacheDecision(ctx, "fridge"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("expected 404, got %v", err)
	}

	// Inference traffic tagged with the device id feeds the tracker.
	x, _ := test.Sample(0)
	if _, err := c.InferObserved(ctx, "demo", "fridge", append([]float64(nil), x...)); err != nil {
		t.Fatal(err)
	}
	d, err := c.CacheDecision(ctx, "fridge")
	if err != nil {
		t.Fatal(err)
	}
	if d.Observations < 1 {
		t.Fatalf("infer traffic did not reach the tracker: %+v", d)
	}
	if d.Cache {
		t.Fatalf("one observation must not justify caching: %+v", d)
	}
	if _, err := c.SubsetModel(ctx, "fridge", 8, 2, ""); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("expected 409 before a positive decision, got %v", err)
	}

	// Bulk-observe a skewed stream: class 1 dominates.
	if err := c.Observe(ctx, "fridge", "demo", 1, 400); err != nil {
		t.Fatal(err)
	}
	d, err = c.CacheDecision(ctx, "fridge")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Cache || len(d.Hot) == 0 || d.Hot[0] != 1 {
		t.Fatalf("skewed stream should flip the decision to class 1: %+v", d)
	}
	resp, err := c.SubsetModel(ctx, "fridge", 8, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.DecodeSubset(resp)
	if err != nil {
		t.Fatal(err)
	}
	var right, total int
	for i := 0; i < test.Len(); i++ {
		x, y := test.Sample(i)
		if y != 1 {
			continue
		}
		total++
		if pred, _, other := sub.Predict(x); !other && pred == 1 {
			right++
		}
	}
	if total == 0 || float64(right)/float64(total) < 0.5 {
		t.Fatalf("served subset hot accuracy %d/%d too low", right, total)
	}

	// Observe validation over the wire.
	if err := c.Observe(ctx, "fridge", "demo", 99, 1); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("expected 400 for out-of-range class, got %v", err)
	}
	if err := c.Observe(ctx, "fridge", "ghost", 0, 1); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("expected 404 for unknown model, got %v", err)
	}
}

func TestOversizedBodiesAre413(t *testing.T) {
	c, train, _ := testServer(t)
	trainDemo(t, c, train)
	ctx := context.Background()
	// A single-sample infer body has a tight cap: 1 MiB of input, a
	// frame a few bytes over it, must come back 413, decoded cleanly by
	// the client.
	huge := make([]float64, 1<<17)
	for i := range huge {
		huge[i] = 1.0 / 3
	}
	_, err := c.Infer(ctx, "demo", huge)
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("expected 413 for oversized infer body, got %v", err)
	}
	// The server survives and keeps answering normal requests.
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
	// Observe bodies are tiny: padding the request over 4 KiB trips the
	// cap.
	raw, _ := json.Marshal(ObserveRequest{Model: "demo", Class: 1, Count: 1})
	padded := append(raw[:len(raw)-1], []byte(`,"pad":"`+strings.Repeat("x", 8<<10)+`"}`)...)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.Base+"/v1/devices/fridge/observe", bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded observe status = %d, want 413", resp.StatusCode)
	}
}
