package service

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"eugene/internal/cache"
	"eugene/internal/snapshot"
)

// The device-state endpoints round-trip a tracker between two servers
// with bitwise-identical cache decisions — the wire contract behind the
// cluster's drain handoff.
func TestDeviceStateMigrationPreservesDecision(t *testing.T) {
	ctx := context.Background()
	src, train, _ := testServer(t)
	trainDemo(t, src, train)
	dst, _, _ := testServer(t)
	// The destination must know the model; migrate the snapshot first,
	// as the cluster router's join sync does.
	raw, err := src.Snapshot(ctx, "demo", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.PutSnapshot(ctx, "demo", raw); err != nil {
		t.Fatal(err)
	}

	const dev = "migrating-device"
	for class, n := range map[int]int{0: 30, 1: 8, 2: 2} {
		if err := src.Observe(ctx, dev, "demo", class, n); err != nil {
			t.Fatal(err)
		}
	}
	before, err := src.CacheDecision(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}

	state, err := src.DeviceState(ctx, dev)
	if err != nil {
		t.Fatalf("DeviceState: %v", err)
	}
	if err := dst.PutDeviceState(ctx, dev, state); err != nil {
		t.Fatalf("PutDeviceState: %v", err)
	}
	after, err := dst.CacheDecision(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	if after.Model != before.Model || after.Cache != before.Cache ||
		math.Float64bits(after.Share) != math.Float64bits(before.Share) ||
		math.Float64bits(after.Observations) != math.Float64bits(before.Observations) {
		t.Fatalf("decision changed across migration:\n before %+v\n after  %+v", before, after)
	}
	if len(after.Hot) != len(before.Hot) {
		t.Fatalf("hot set changed: %v vs %v", before.Hot, after.Hot)
	}
	for i := range before.Hot {
		if after.Hot[i] != before.Hot[i] {
			t.Fatalf("hot set changed: %v vs %v", before.Hot, after.Hot)
		}
	}
	// Export is a read: the source still answers identically.
	still, err := src.CacheDecision(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(still.Observations) != math.Float64bits(before.Observations) {
		t.Fatal("export disturbed the source tracker")
	}
}

func TestDeviceStateGetUnknownIs404(t *testing.T) {
	c, _, _ := testServer(t)
	_, err := c.DeviceState(context.Background(), "nobody")
	var se *ServerError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("unknown device export: got %v; want 404", err)
	}
}

func TestDeviceStatePutRejectsBadPayloads(t *testing.T) {
	ctx := context.Background()
	c, train, _ := testServer(t)
	trainDemo(t, c, train)

	status := func(err error) int {
		t.Helper()
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("want ServerError, got %v", err)
		}
		return se.Status
	}

	// Garbage bytes: 400 at decode.
	if got := status(c.PutDeviceState(ctx, "d", []byte("not a snapshot"))); got != http.StatusBadRequest {
		t.Fatalf("garbage payload: status %d; want 400", got)
	}

	// Corrupted frame (checksum mismatch): 400.
	f, _ := cache.NewFreqTracker(3, 0.999)
	f.ObserveN(0, 5)
	var buf bytes.Buffer
	if err := snapshot.EncodeDeviceState(&buf, &snapshot.DeviceState{Model: "demo", Tracker: f.Export()}); err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)-3] ^= 0xff
	if got := status(c.PutDeviceState(ctx, "d", corrupt)); got != http.StatusBadRequest {
		t.Fatalf("corrupt payload: status %d; want 400", got)
	}

	// Unknown model: 404.
	var ghost bytes.Buffer
	if err := snapshot.EncodeDeviceState(&ghost, &snapshot.DeviceState{Model: "ghost", Tracker: f.Export()}); err != nil {
		t.Fatal(err)
	}
	if got := status(c.PutDeviceState(ctx, "d", ghost.Bytes())); got != http.StatusNotFound {
		t.Fatalf("unknown model: status %d; want 404", got)
	}

	// Class-count mismatch vs the target model (demo has 3 classes): 400.
	f5, _ := cache.NewFreqTracker(5, 0.999)
	f5.ObserveN(4, 2)
	var mismatch bytes.Buffer
	if err := snapshot.EncodeDeviceState(&mismatch, &snapshot.DeviceState{Model: "demo", Tracker: f5.Export()}); err != nil {
		t.Fatal(err)
	}
	if got := status(c.PutDeviceState(ctx, "d", mismatch.Bytes())); got != http.StatusBadRequest {
		t.Fatalf("class mismatch: status %d; want 400", got)
	}

	// Oversized body: 413 from MaxBytesReader, before any decode.
	if got := status(c.PutDeviceState(ctx, "d", make([]byte, MaxDeviceStateBody+1))); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized payload: status %d; want 413", got)
	}

	// None of the rejects installed anything.
	if _, err := c.CacheDecision(ctx, "d"); err == nil {
		t.Fatal("a rejected import installed device state")
	}
}

// A rejected import must not clobber existing device state.
func TestDeviceStatePutFailureLeavesExistingState(t *testing.T) {
	ctx := context.Background()
	c, train, _ := testServer(t)
	trainDemo(t, c, train)
	const dev = "keeper"
	if err := c.Observe(ctx, dev, "demo", 1, 9); err != nil {
		t.Fatal(err)
	}
	before, err := c.CacheDecision(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	f5, _ := cache.NewFreqTracker(5, 0.999)
	f5.ObserveN(0, 1)
	var mismatch bytes.Buffer
	if err := snapshot.EncodeDeviceState(&mismatch, &snapshot.DeviceState{Model: "demo", Tracker: f5.Export()}); err != nil {
		t.Fatal(err)
	}
	if err := c.PutDeviceState(ctx, dev, mismatch.Bytes()); err == nil {
		t.Fatal("class-mismatched import accepted")
	}
	after, err := c.CacheDecision(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after.Observations) != math.Float64bits(before.Observations) {
		t.Fatalf("failed import disturbed existing state: %+v vs %+v", before, after)
	}
}

// Multi-router failover: a client with two equivalent endpoints keeps
// idempotent requests flowing when the current one dies, and sticks to
// the survivor afterwards.
func TestClientFailsOverAcrossRouters(t *testing.T) {
	var aDead atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, StatsResponse{Models: map[string]ModelStats{}})
	})
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if aDead.Load() {
			// Simulate a dead process: sever the connection.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, _ := hj.Hijack()
			_ = conn.Close()
			return
		}
		mux.ServeHTTP(w, r)
	}))
	defer a.Close()
	b := httptest.NewServer(mux)
	defer b.Close()

	c := NewFailoverClient(a.URL, b.URL)
	c.Retry.Budget = 1000
	ctx := context.Background()
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("stats via live primary: %v", err)
	}
	if got := c.currentBase(); got != a.URL {
		t.Fatalf("client moved off a healthy primary: %s", got)
	}
	aDead.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Stats(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d lost during router failover: %v", i, err)
		}
	}
	if got := c.currentBase(); got != b.URL {
		t.Fatalf("client still pointed at the dead router: %s", got)
	}
}

// Overload (429) must not trigger router failover: a saturated fleet is
// saturated through every router, and hopping endpoints would defeat
// the admission-control backpressure.
func TestClientDoesNotFailOverOn429(t *testing.T) {
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusTooManyRequests, errors.New("overloaded"))
	}))
	defer overloaded.Close()
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, StatsResponse{Models: map[string]ModelStats{}})
	}))
	defer other.Close()

	c := NewFailoverClient(overloaded.URL, other.URL)
	c.Retry.MaxAttempts = 2
	c.Retry.BaseBackoff = 1
	c.Retry.MaxBackoff = 1
	if _, err := c.Stats(context.Background()); err == nil {
		t.Fatal("want 429 to surface")
	}
	if got := c.currentBase(); got != overloaded.URL {
		t.Fatalf("client hopped routers on overload: %s", got)
	}
}
