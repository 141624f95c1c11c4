package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
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
		{core.ErrLabelRange, http.StatusBadRequest},
		{fmt.Errorf("%w for model %q: sample 1 has label 7", core.ErrLabelRange, "m"), http.StatusBadRequest},
		{fmt.Errorf(`core: model "m" wants %w 4, got 2`, core.ErrInputWidth), http.StatusBadRequest},
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
	c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Second}}
	start := time.Now()
	if _, err := c.Infer(context.Background(), "m", []float64{1}); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	// The first retry's jitter window is BaseBackoff, 1ms; only the
	// honored header explains a ≥1s wait.
	if d := time.Since(start); d < time.Second {
		t.Fatalf("retried after %v, want ≥1s (Retry-After: 1)", d)
	}
}

// TestRetryAfterParse: the hint is whole positive seconds or nothing —
// no sign, space or unit, nothing that overflows a time.Duration (the
// two values past 9 223 372 036 s), no HTTP-date.
func TestRetryAfterParse(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"-1", 0},
		{"1", time.Second},
		{"3600", time.Hour},
		{"9223372036", 9223372036 * time.Second},
		{"9223372037", 0},
		{"18446744074", 0},
		{"99999999999999999999", 0},
		{" 5", 0},
		{"+5", 0},
		{"5s", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	} {
		if got := parseRetryAfter(tc.header); got != tc.want {
			t.Errorf("Retry-After %q: hint %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestRetryAfterCapped: a 503 asking for an hour delays a retry under a
// caller with no deadline by at most MaxBackoff, not by the hour.
func TestRetryAfterCapped(t *testing.T) {
	hdr := http.Header{}
	hdr.Set("Retry-After", "3600")
	ts, calls := countdownServer(t, 1, http.StatusServiceUnavailable, hdr,
		`{"results":[{"pred":0,"conf":0.9,"stages":1,"expired":false,"latency_ms":1}]}`)
	const maxBackoff = 200 * time.Millisecond
	c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: maxBackoff}}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := c.InferBatch(context.Background(), "m", [][]float64{{1}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("InferBatch: %v", err)
		}
	case <-time.After(maxBackoff + 10*time.Second):
		t.Fatal("InferBatch still waiting: the Retry-After hour was obeyed")
	}
	if d := time.Since(start); d < maxBackoff {
		t.Errorf("retried after %v, want the hint capped at MaxBackoff %v, not dropped", d, maxBackoff)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("%d requests, want 2", got)
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

// TestClientRetryRespectsContext: a retry loop whose context ends while
// it waits out a backoff starts no attempt after the deadline and
// returns at once. The server asks for a 2 s Retry-After, so the
// deadline (60 ms) falls inside the first wait whatever the jitter draws.
func TestClientRetryRespectsContext(t *testing.T) {
	ts, _ := countdownServer(t, 1000, http.StatusServiceUnavailable, http.Header{"Retry-After": {"2"}}, "{}")
	var wire countingTransport
	c := &Client{Base: ts.URL, HTTP: &http.Client{Transport: &wire},
		Retry: &RetryPolicy{MaxAttempts: 100, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 5 * time.Second}}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Infer(ctx, "m", []float64{1})
	if err == nil {
		t.Fatal("Infer succeeded against dead server")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("retry loop ran %v past a 60ms context", d)
	}
	if late := wire.late.Load(); late != 0 {
		t.Errorf("%d of %d attempts started after the context's deadline", late, wire.sent.Load())
	}
}

// countingTransport counts the requests a Client sends, and the ones
// sent with their context already done.
type countingTransport struct{ sent, late atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.sent.Add(1)
	if r.Context().Err() != nil {
		c.late.Add(1)
	}
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

// lockedBuffer is a bytes.Buffer a server's error log may write to from
// its connection goroutines while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// payloadJSON is a DataPayload body of rows samples of dim values, with
// the given labels.
func payloadJSON(dim int, labels ...int) string {
	x := make([]float64, dim*len(labels))
	for i := range x {
		x[i] = float64(i%7) / 7
	}
	body, _ := json.Marshal(DataPayload{Dim: dim, X: x, Labels: labels})
	return string(body)
}

// Training data the model cannot take is the client's error: every body
// below gets a 400 from the replica, and none reaches a panic inside a
// handler. At the parent commit five of them panicked their handler
// (labels 7 and -1, the overflowing dim, both wrong-width sets): net/http
// logged "http: panic serving" and dropped the connection, an EOF that a
// router in front counts against the node. Three more were answered 200
// — the negative hidden trained at the default width, and calibration
// and the predictor fit to labels no head can output — and the negative
// reduce width was a 500.
func TestMalformedTrainingDataIs400(t *testing.T) {
	svc, err := core.NewService(core.Config{Workers: 1, Deadline: time.Second, QueueDepth: 8, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	var serverLog lockedBuffer
	ts := httptest.NewUnstartedServer(NewServer(svc))
	ts.Config.ErrorLog = log.New(&serverLog, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := context.Background()
	var ok DataPayload
	if err := json.Unmarshal([]byte(payloadJSON(3, 0, 1, 2, 0, 1, 2, 0, 1)), &ok); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Train(ctx, "m", TrainRequest{Data: ok, Classes: 3, Hidden: 8, Stages: 2, Blocks: 1, Epochs: 1}); err != nil {
		t.Fatalf("training on a valid set: %v", err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/models/n/train", `{"data":{"dim":2,"x":[1,2,3,4],"labels":[0,7]},"classes":2}`},
		{"/v1/models/n/train", `{"data":{"dim":4611686018427387904,"x":[],"labels":[0,1,0,1]},"classes":2}`},
		{"/v1/models/n/train", `{"data":{"dim":1,"x":[1,2],"labels":[0,-1]},"classes":2}`},
		{"/v1/models/n/train", `{"data":{"dim":1,"x":[1,2],"labels":[0,1]},"classes":2,"hidden":-1}`},
		{"/v1/models/n/train", `{"data":{"dim":1,"x":[1,2],"labels":[0,1]},"classes":2,"epochs":-5}`},
		{"/v1/models/m/calibrate", payloadJSON(3, 0, 1, 2, 3, 0, 1)},
		{"/v1/models/m/calibrate", payloadJSON(2, 0, 1, 2, 0, 1, 2)},
		{"/v1/models/m/predictor", payloadJSON(3, 0, 9, 1, 2)},
		{"/v1/models/m/predictor", payloadJSON(5, 0, 1, 2, 0)},
		{"/v1/models/m/reduce", `{"hot":[0],"hidden":-2}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s %.60s: %v", tc.path, tc.body, err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %.60s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	if l := serverLog.String(); strings.Contains(l, "panic") {
		t.Fatalf("a handler panicked:\n%s", l)
	}
}

// FuzzTrainRequest holds the train handler's validation to its promise
// on arbitrary bodies: decoding and TrainRequest.options never panic,
// and a set they accept has Dim values per sample and every label in
// [0, Classes) — what training indexes with.
func FuzzTrainRequest(f *testing.F) {
	for _, seed := range []string{
		`{"data":{"dim":2,"x":[1,2,3,4],"labels":[0,1]},"classes":2}`,
		`{"data":{"dim":2,"x":[1,2,3,4],"labels":[0,7]},"classes":2}`,
		`{"data":{"dim":4611686018427387904,"x":[],"labels":[0,1,0,1]},"classes":2}`,
		`{"data":{"dim":-1,"x":[1],"labels":[0]},"classes":2,"hidden":-3,"stages":2}`,
		`{"data":{"dim":1,"x":[1,2,3],"labels":[2,1,0]},"classes":3,"blocks":1,"epochs":1,"seed":9}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req TrainRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		set, opts, err := req.options()
		if err != nil {
			return
		}
		if rows := len(set.Labels); set.X.Rows != rows || set.X.Cols != req.Data.Dim || len(set.X.Data) != rows*req.Data.Dim {
			t.Fatalf("accepted %d labels as a %dx%d matrix of %d values (dim %d)", rows, set.X.Rows, set.X.Cols, len(set.X.Data), req.Data.Dim)
		}
		for i, y := range set.Labels {
			if y < 0 || y >= req.Classes {
				t.Fatalf("accepted label %d at sample %d for %d classes", y, i, req.Classes)
			}
		}
		if m := opts.Model; m.In != req.Data.Dim || m.Classes != req.Classes || m.Hidden < 1 || m.StageCount < 1 || m.BlocksPerStage < 1 || opts.Train.Epochs < 1 {
			t.Fatalf("accepted options %+v for %s", opts, body)
		}
	})
}
