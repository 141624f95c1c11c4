package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"eugene/internal/dataset"
	"eugene/internal/tensor"
)

// clientCall is one Client method, called with throw-away arguments.
type clientCall struct {
	name       string
	idempotent bool
	call       func(ctx context.Context, c *Client) error
}

// clientCalls lists every Client method that reaches the network. The
// idempotent ones are the reads and pure inference; everything else
// mutates, or is a probe whose answer a retry would blur.
func clientCalls() []clientCall {
	in := []float64{1}
	set := &dataset.Set{X: tensor.New[float64](1, 1), Labels: []int{0}}
	return []clientCall{
		{"Infer", true, func(ctx context.Context, c *Client) error { _, err := c.Infer(ctx, "m", in); return err }},
		{"InferBatch", true, func(ctx context.Context, c *Client) error {
			_, err := c.InferBatch(ctx, "m", [][]float64{in})
			return err
		}},
		{"Stats", true, func(ctx context.Context, c *Client) error { _, err := c.Stats(ctx); return err }},
		{"Models", true, func(ctx context.Context, c *Client) error { _, err := c.Models(ctx); return err }},
		{"Snapshot", true, func(ctx context.Context, c *Client) error { _, err := c.Snapshot(ctx, "m", "f32"); return err }},
		{"DeviceState", true, func(ctx context.Context, c *Client) error { _, err := c.DeviceState(ctx, "d"); return err }},
		{"ModelVersion", true, func(ctx context.Context, c *Client) error { _, err := c.ModelVersion(ctx, "m"); return err }},
		{"CacheDecision", true, func(ctx context.Context, c *Client) error { _, err := c.CacheDecision(ctx, "d"); return err }},
		{"SubsetModel", true, func(ctx context.Context, c *Client) error {
			_, err := c.SubsetModel(ctx, "d", 8, 1, "f32")
			return err
		}},
		{"ClusterStatus", true, func(ctx context.Context, c *Client) error { _, err := c.ClusterStatus(ctx); return err }},

		{"Train", false, func(ctx context.Context, c *Client) error { _, err := c.Train(ctx, "m", TrainRequest{}); return err }},
		{"Calibrate", false, func(ctx context.Context, c *Client) error { _, err := c.Calibrate(ctx, "m", set); return err }},
		{"BuildPredictor", false, func(ctx context.Context, c *Client) error { return c.BuildPredictor(ctx, "m", set) }},
		{"InferObserved", false, func(ctx context.Context, c *Client) error {
			_, err := c.InferObserved(ctx, "m", "d", in)
			return err
		}},
		{"PutSnapshot", false, func(ctx context.Context, c *Client) error { return c.PutSnapshot(ctx, "m", []byte("x")) }},
		{"Reduce", false, func(ctx context.Context, c *Client) error { _, err := c.Reduce(ctx, "m", ReduceRequest{}); return err }},
		{"Observe", false, func(ctx context.Context, c *Client) error { return c.Observe(ctx, "d", "m", 0, 1) }},
		{"Ready", false, func(ctx context.Context, c *Client) error { return c.Ready(ctx) }},
		{"PutDeviceState", false, func(ctx context.Context, c *Client) error { return c.PutDeviceState(ctx, "d", []byte("x")) }},
		{"AddClusterNode", false, func(ctx context.Context, c *Client) error {
			_, err := c.AddClusterNode(ctx, "http://n")
			return err
		}},
		{"RemoveClusterNode", false, func(ctx context.Context, c *Client) error {
			_, err := c.RemoveClusterNode(ctx, "http://n")
			return err
		}},
		{"DrainClusterNode", false, func(ctx context.Context, c *Client) error {
			_, err := c.DrainClusterNode(ctx, "http://n")
			return err
		}},
		{"Healthy", false, func(ctx context.Context, c *Client) error { return c.Healthy(ctx) }},
	}
}

// TestClientRetryContract: against a server that answers 503 once and
// then 200, an idempotent method is sent twice and succeeds, and every
// other method is sent once and reports the 503 as a *ServerError,
// Healthy included.
func TestClientRetryContract(t *testing.T) {
	for _, tc := range clientCalls() {
		t.Run(tc.name, func(t *testing.T) {
			ts, calls := countdownServer(t, 1, http.StatusServiceUnavailable, nil, "{}")
			c := &Client{Base: ts.URL, Retry: &RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}}
			err := tc.call(context.Background(), c)
			want := int64(1)
			if tc.idempotent {
				want = 2
				if err != nil {
					t.Fatalf("idempotent call after one 503: %v", err)
				}
			} else {
				var se *ServerError
				if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
					t.Fatalf("err = %v, want the 503 as a ServerError", err)
				}
			}
			if got := calls.Load(); got != want {
				t.Fatalf("%d requests, want %d", got, want)
			}
		})
	}
}

// deadURL is the address of a listener that has been closed: a dial to
// it is refused, the way a dead router's is.
func deadURL(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return "http://" + addr
}

// TestClientFailoverContract: behind NewFailoverClient(dead, live), an
// idempotent method fails over within the call. Any other method fails
// once, since it must not be re-sent, but its failure moves the client
// on, so the next call of the same method reaches the live router.
func TestClientFailoverContract(t *testing.T) {
	for _, tc := range clientCalls() {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				fmt.Fprint(w, "{}")
			}))
			t.Cleanup(live.Close)
			c := NewFailoverClient(deadURL(t), live.URL)
			c.Retry.BaseBackoff, c.Retry.MaxBackoff = time.Millisecond, time.Millisecond
			ctx := context.Background()
			err := tc.call(ctx, c)
			if tc.idempotent {
				if err != nil {
					t.Fatalf("idempotent call did not fail over: %v", err)
				}
				if got := calls.Load(); got != 1 {
					t.Fatalf("%d requests reached the live router, want 1", got)
				}
				return
			}
			if err == nil {
				t.Fatal("a non-idempotent call to the dead router succeeded")
			}
			if got := calls.Load(); got != 0 {
				t.Fatalf("a non-idempotent call was re-sent: %d requests reached the live router", got)
			}
			if err := tc.call(ctx, c); err != nil {
				t.Fatalf("second call still aimed at the dead router: %v", err)
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("%d requests reached the live router, want 1", got)
			}
		})
	}
}
