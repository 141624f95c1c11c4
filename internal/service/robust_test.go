package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eugene/internal/core"
	"eugene/internal/failpoint"
	"eugene/internal/sched"
)

func TestStatusForTypedErrors(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{core.ErrClosed, http.StatusServiceUnavailable},
		{sched.ErrStopped, http.StatusServiceUnavailable},
		{fmt.Errorf("core: infer: %w", sched.ErrStopped), http.StatusServiceUnavailable},
		{&sched.ErrOverloaded{RetryAfter: time.Second}, http.StatusTooManyRequests},
		{fmt.Errorf("wrapped: %w", &sched.ErrOverloaded{}), http.StatusTooManyRequests},
		{&failpoint.Error{Site: "s", Msg: "injected"}, http.StatusServiceUnavailable},
		{fmt.Errorf("%w %q", core.ErrUnknownModel, "x"), http.StatusNotFound},
		// Permanent, so not the 429 a client would retry.
		{fmt.Errorf("sched: batch of 9 %w 8", sched.ErrBatchTooLarge), http.StatusRequestEntityTooLarge},
		{core.ErrUnknownDevice, http.StatusNotFound},
		{core.ErrInputWidth, http.StatusBadRequest},
		{core.ErrEmptyDevice, http.StatusBadRequest},
		{core.ErrClassRange, http.StatusBadRequest},
		{core.ErrInstall, http.StatusBadRequest},
		{core.ErrBadDeviceState, http.StatusBadRequest},
		{core.ErrCachingNotJustified, http.StatusConflict},
		{core.ErrNoTrainingData, http.StatusConflict},
		// Only the sentinel decides: the words alone do not.
		{errors.New(`core: unknown model "x"`), http.StatusInternalServerError},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestWriteFailureSetsRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	writeFailure(rec, &sched.ErrOverloaded{RetryAfter: 1500 * time.Millisecond, Predicted: 2 * time.Second, Deadline: 100 * time.Millisecond})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	// 1.5s rounds up: the client must not retry early.
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", got)
	}
	var body ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("error body %q (%v)", body.Error, err)
	}
}

func TestReadyzFlipsDuringDrain(t *testing.T) {
	svc, err := core.NewService(core.Config{Workers: 1, Deadline: time.Second, QueueDepth: 8, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := context.Background()

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("ready before drain: %v", err)
	}
	srv.SetDraining(true)
	err = c.Ready(ctx)
	var se *ServerError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("ready during drain = %v, want 503", err)
	}
	// Liveness is unaffected: the process is alive, just not accepting.
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	srv.SetDraining(false)
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("ready after drain cleared: %v", err)
	}
}

// countdownServer fails the first n requests with status code, then
// succeeds with body.
func countdownServer(t *testing.T, n int, code int, header http.Header, okBody string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			for k, vs := range header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(code)
			fmt.Fprint(w, `{"error":"transient"}`)
			return
		}
		fmt.Fprint(w, okBody)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func TestClientRetries503ThenSucceeds(t *testing.T) {
	ts, calls := countdownServer(t, 2, http.StatusServiceUnavailable, nil,
		`{"pred":1,"conf":0.9,"stages":3,"expired":false,"latency_ms":1}`)
	c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}}
	resp, err := c.Infer(context.Background(), "m", []float64{1})
	if err != nil {
		t.Fatalf("Infer after retries: %v", err)
	}
	if resp.Pred != 1 {
		t.Fatalf("pred %d, want 1", resp.Pred)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("%d requests, want 3 (2 failures + 1 success)", got)
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	hdr := http.Header{}
	hdr.Set("Retry-After", "1")
	ts, _ := countdownServer(t, 1, http.StatusTooManyRequests, hdr,
		`{"pred":0,"conf":0.9,"stages":1,"expired":false,"latency_ms":1}`)
	c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}}
	start := time.Now()
	if _, err := c.Infer(context.Background(), "m", []float64{1}); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	// The jitter window caps at 2ms; only the honored header explains a
	// ≥1s wait.
	if d := time.Since(start); d < time.Second {
		t.Fatalf("retried after %v, want ≥1s (Retry-After: 1)", d)
	}
}

func TestClientDoesNotRetryMutations(t *testing.T) {
	ts, calls := countdownServer(t, 100, http.StatusServiceUnavailable, nil, "{}")
	c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}}
	_, err := c.Train(context.Background(), "m", TrainRequest{})
	if err == nil {
		t.Fatal("train against failing server succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d train requests, want 1 (mutations must not retry)", got)
	}
}

func TestClientDoesNotRetryDefinitiveErrors(t *testing.T) {
	ts, calls := countdownServer(t, 100, http.StatusNotFound, nil, "{}")
	c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}}
	_, err := c.Infer(context.Background(), "m", []float64{1})
	var se *ServerError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 ServerError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d requests, want 1 (404 is definitive)", got)
	}
}

func TestClientRetryBudget(t *testing.T) {
	ts, calls := countdownServer(t, 1000, http.StatusServiceUnavailable, nil, "{}")
	// Budget 2: across all calls, only 2 retries total may be spent.
	c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond, Budget: 2}}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Infer(ctx, "m", []float64{1}); err == nil {
			t.Fatal("Infer against dead server succeeded")
		}
	}
	// 5 first attempts + 2 budgeted retries.
	if got := calls.Load(); got != 7 {
		t.Fatalf("%d requests, want 7 (budget must stop retry amplification)", got)
	}
}

func TestClientRetryRespectsContext(t *testing.T) {
	ts, calls := countdownServer(t, 1000, http.StatusServiceUnavailable, nil, "{}")
	c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 100, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Infer(ctx, "m", []float64{1})
	if err == nil {
		t.Fatal("Infer succeeded against dead server")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("retry loop ran %v past a 60ms context", d)
	}
	if got := calls.Load(); got > 5 {
		t.Fatalf("%d attempts inside a 60ms context at 50ms backoff", got)
	}
}

// countingTransport counts the requests a Client sends.
type countingTransport struct{ sent atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.sent.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// A batch of more rows than the scheduler's queue can ever hold is
// refused for good: 413, which no retry policy replays. As a 429 (what
// it used to be) a resilient client sent it four times, spending three
// of the retry tokens that genuinely transient failures need.
func TestOversizedBatchIsRefusedOnceNotRetried(t *testing.T) {
	c, train, test := testServer(t) // QueueDepth 32
	trainDemo(t, c, train)
	var wire countingTransport
	rc := NewResilientClient(c.Base)
	rc.HTTP = &http.Client{Transport: &wire}

	rows := make([][]float64, 33)
	for i := range rows {
		rows[i], _ = test.Sample(i)
	}
	_, err := rc.InferBatch(context.Background(), "demo", rows)
	var se *ServerError
	if !errors.As(err, &se) || se.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("InferBatch of 33 rows into a queue of 32: %v, want a 413 ServerError", err)
	}
	if want := "sched: batch of 33 exceeds queue depth 32"; se.Msg != want {
		t.Fatalf("error text %q, want %q", se.Msg, want)
	}
	if got := wire.sent.Load(); got != 1 {
		t.Fatalf("the oversized batch cost %d requests, want 1", got)
	}
}

// TestInferChaosWithFailpoints drives concurrent inference traffic
// while the handler-level failpoints fire, asserting the contract the
// chaos suite exists for: every request gets exactly one response, the
// injected faults surface as clean 503s, and the armed sites actually
// fired.
func TestInferChaosWithFailpoints(t *testing.T) {
	c, train, test := testServer(t)
	trainDemo(t, c, train)

	failpoint.DisableAll()
	failpoint.ResetCounts()
	// Every third infer fails at the handler seam; infer-batch gets a
	// small stall.
	if err := failpoint.EnableSpec("service.infer=8*error(handler I/O);service.infer-batch=delay(2ms)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	x, _ := test.Sample(0)
	ctx := context.Background()
	var wg sync.WaitGroup
	var ok, injected atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := c.Infer(ctx, "demo", x)
				var se *ServerError
				switch {
				case err == nil:
					ok.Add(1)
				case errors.As(err, &se) && se.Status == http.StatusServiceUnavailable:
					injected.Add(1)
				default:
					t.Errorf("infer under chaos: %v", err)
				}
			}
			if _, err := c.InferBatch(ctx, "demo", [][]float64{x, x}); err != nil {
				t.Errorf("infer-batch under chaos: %v", err)
			}
		}()
	}
	wg.Wait()

	if injected.Load() != 8 {
		t.Fatalf("%d injected failures surfaced, want 8", injected.Load())
	}
	if ok.Load() != 8*4-8 {
		t.Fatalf("%d requests succeeded, want %d", ok.Load(), 8*4-8)
	}
	counts := failpoint.Counts()
	if counts["service.infer"] != 8 || counts["service.infer-batch"] == 0 {
		t.Fatalf("failpoint counts = %v", counts)
	}
}
