package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newAdmitLive builds a Live with admission control enabled.
func newAdmitLive(t *testing.T, workers int, deadline, delay time.Duration, gauge *atomic.Int32) *Live {
	t.Helper()
	execs := make([]StageExecutor, workers)
	for i := range execs {
		execs[i] = &slowExec{delay: delay}
	}
	l, err := NewLive(LiveConfig{
		Workers: workers, Deadline: deadline, QueueDepth: 64,
		Admission: true, DegradeSignal: gauge,
	}, NewGreedy(1, flatPriors(), "g"), execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	return l
}

// warmAdmission seeds the cost model past its warm-up gate with a
// synthetic per-stage cost, so admission decisions become deterministic
// for unit tests.
func warmAdmission(l *Live, stageCost time.Duration, stages float64) {
	for i := 0; i < admitWarmup; i++ {
		l.adm.observeDispatch(1, stageCost)
	}
	// Alpha-blend to exactly stageCost: every observation was identical.
	l.adm.taskStages.Observe(1, stages)
}

func TestAdmitColdPoolAdmitsEverything(t *testing.T) {
	l := newAdmitLive(t, 1, time.Millisecond, 0, nil)
	// No dispatches observed: even an absurd backlog must be admitted —
	// rejecting on a zero cost estimate would refuse the first request
	// a fresh pool ever sees.
	l.adm.demand.Store(1 << 20)
	if err := l.admit(1); err != nil {
		t.Fatalf("cold admit returned %v", err)
	}
}

func TestAdmitRejectsWhenForecastMissesDeadline(t *testing.T) {
	l := newAdmitLive(t, 1, 10*time.Millisecond, 0, nil)
	warmAdmission(l, time.Millisecond, 3) // 3ms per task
	l.adm.demand.Store(100)               // forecast: 100×3ms = 300ms ≫ 10ms
	err := l.admit(1)
	var ov *ErrOverloaded
	if !errors.As(err, &ov) {
		t.Fatalf("admit returned %v, want *ErrOverloaded", err)
	}
	if ov.Predicted <= ov.Deadline {
		t.Fatalf("rejection with predicted %v ≤ deadline %v", ov.Predicted, ov.Deadline)
	}
	if ov.RetryAfter < minRetryAfter || ov.RetryAfter > maxRetryAfter {
		t.Fatalf("RetryAfter %v outside [%v, %v]", ov.RetryAfter, minRetryAfter, maxRetryAfter)
	}
	if got := l.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
}

func TestAdmitAcceptsWithinDeadline(t *testing.T) {
	l := newAdmitLive(t, 4, 100*time.Millisecond, 0, nil)
	warmAdmission(l, time.Millisecond, 3)
	l.adm.demand.Store(4) // forecast: (4+1)/4 × 3ms ≈ 3.75ms ≪ 100ms
	if err := l.admit(1); err != nil {
		t.Fatalf("admit returned %v", err)
	}
}

func TestAdmitDisabledNeverRejects(t *testing.T) {
	l := newTestLive(t, 1, time.Millisecond, 0) // Admission false
	warmAdmission(l, time.Second, 3)
	l.adm.demand.Store(1 << 20)
	if err := l.admit(1); err != nil {
		t.Fatalf("admission-off admit returned %v", err)
	}
}

func TestDegradeLadderClimbsAndRecovers(t *testing.T) {
	gauge := new(atomic.Int32)
	l := newAdmitLive(t, 1, time.Millisecond, 0, gauge)
	// Sustained rejections push the rejection EWMA through both
	// thresholds.
	for i := 0; i < 512; i++ {
		l.noteDecision(true)
	}
	if lvl := l.DegradeLevel(); lvl != DegradeTier {
		t.Fatalf("level after sustained rejections = %d, want %d", lvl, DegradeTier)
	}
	if g := int(gauge.Load()); g != DegradeTier {
		t.Fatalf("gauge = %d, want %d", g, DegradeTier)
	}
	// Sustained admissions walk it back down.
	for i := 0; i < 4096; i++ {
		l.noteDecision(false)
	}
	if lvl := l.DegradeLevel(); lvl != DegradeNone {
		t.Fatalf("level after recovery = %d, want %d", lvl, DegradeNone)
	}
	if g := int(gauge.Load()); g != DegradeNone {
		t.Fatalf("gauge after recovery = %d, want %d", g, DegradeNone)
	}
}

// TestDegradeLadderIgnoresOneRejection pins the rejection rate as a
// plain from-zero average: after any run of admissions one refusal
// moves it by rejectAlpha, far below the first rung. (Seeded by its
// first non-zero observation, it jumped to 1.0 and the pool straight to
// the f32 tier.)
func TestDegradeLadderIgnoresOneRejection(t *testing.T) {
	gauge := new(atomic.Int32)
	l := newAdmitLive(t, 1, time.Millisecond, 0, gauge)
	for i := 0; i < 1000; i++ {
		l.noteDecision(false)
	}
	l.noteDecision(true)
	if lvl := l.DegradeLevel(); lvl != DegradeNone {
		t.Fatalf("level after 1000 admits and one reject = %d, want %d", lvl, DegradeNone)
	}
	if g := int(gauge.Load()); g != DegradeNone {
		t.Fatalf("gauge = %d, want %d", g, DegradeNone)
	}
}

func TestGroupCapSizedBySlack(t *testing.T) {
	l := newAdmitLive(t, 1, 100*time.Millisecond, 0, nil)
	warmAdmission(l, time.Millisecond, 3)
	if got := l.groupCap(int64(3500 * time.Microsecond)); got != 3 {
		t.Fatalf("groupCap(3.5ms slack at 1ms/stage) = %d, want 3", got)
	}
	// A nearly-due task still dispatches alone rather than waiting for
	// a group.
	if got := l.groupCap(int64(10 * time.Microsecond)); got != 1 {
		t.Fatalf("groupCap(tiny slack) = %d, want 1", got)
	}
	// Ample slack is capped by MaxBatch.
	if got := l.groupCap(int64(time.Hour)); got != l.cfg.MaxBatch {
		t.Fatalf("groupCap(huge slack) = %d, want MaxBatch %d", got, l.cfg.MaxBatch)
	}
}

func TestGroupCapFixedWhenAdmissionOff(t *testing.T) {
	l := newTestLive(t, 1, time.Second, 0)
	warmAdmission(l, time.Second, 3)
	if got := l.groupCap(1); got != l.cfg.MaxBatch {
		t.Fatalf("admission-off groupCap = %d, want MaxBatch %d", got, l.cfg.MaxBatch)
	}
}

func TestForceExitUnderDegradation(t *testing.T) {
	l := newAdmitLive(t, 1, 100*time.Millisecond, 0, nil)
	warmAdmission(l, time.Millisecond, 3)
	if l.forceExit(int64(10 * time.Millisecond)) {
		t.Fatal("forceExit fired at degradation level 0")
	}
	l.adm.level.Store(DegradeExit)
	if !l.forceExit(int64(500 * time.Microsecond)) {
		t.Fatal("forceExit did not fire: slack 0.5ms < 1 stage at 1ms")
	}
	if l.forceExit(int64(10 * time.Millisecond)) {
		t.Fatal("forceExit fired with ample slack")
	}
	// Deeper degradation demands more headroom.
	l.adm.level.Store(DegradeTier)
	if !l.forceExit(int64(1500 * time.Microsecond)) {
		t.Fatal("forceExit did not fire: slack 1.5ms < 2 stages at 1ms")
	}
}

// TestAdmissionRejectsUnderLiveOverload drives a warm 1-worker pool far
// past capacity and checks the end-to-end path: Submit returns typed
// ErrOverloaded, the rejection counter moves, and accepted tasks still
// finalize.
func TestAdmissionRejectsUnderLiveOverload(t *testing.T) {
	l := newAdmitLive(t, 1, 20*time.Millisecond, time.Millisecond, nil)
	ctx := context.Background()
	// Warm the cost model with real sequential traffic (3 dispatches
	// per task at 1ms each).
	for i := 0; i < admitWarmup; i++ {
		if _, err := l.Submit(ctx, []float64{1}, 3); err != nil {
			t.Fatalf("warm-up submit %d: %v", i, err)
		}
	}
	// Flood: 64 concurrent submitters against a 1-worker pool whose
	// task cost (~3ms) fits only ~6 tasks inside the 20ms deadline.
	type outcome struct {
		resp Response
		err  error
	}
	results := make(chan outcome, 64)
	for i := 0; i < 64; i++ {
		go func() {
			r, err := l.Submit(ctx, []float64{1}, 3)
			results <- outcome{r, err}
		}()
	}
	var rejected, completed int
	for i := 0; i < 64; i++ {
		o := <-results
		var ov *ErrOverloaded
		switch {
		case errors.As(o.err, &ov):
			rejected++
		case o.err == nil || errors.Is(o.err, ErrUnanswered):
			completed++
		default:
			t.Fatalf("unexpected submit error: %v", o.err)
		}
	}
	if rejected == 0 {
		t.Fatal("no submission was rejected at 10x+ overload")
	}
	if completed == 0 {
		t.Fatal("every submission was rejected: admission must shed load, not close the door")
	}
	if st := l.Stats(); st.Rejected == 0 {
		t.Fatalf("Stats().Rejected = 0 after %d rejections", rejected)
	}
}

// TestAdmissionGoodputAtOverload holds admission control to paying for
// itself: offered twice the pool's capacity, the same Live must answer
// at least 0.95× as many requests within their deadline with admission
// on as with it off, and with it on at least 0.6 of what the capacity
// can serve in the span the arrivals take. Without admission almost
// nothing meets the deadline at 2×, so the first bar alone passes an
// admit that takes work only into an idle pool (≈ half the capacity);
// the floor does not. Stopwatch executors fix the capacity without
// measuring it: one task is three dispatches of stageDelay, MaxBatch 1,
// on each of workers. A request counts as goodput when it is answered,
// not expired, and within the deadline measured from its submit call.
func TestAdmissionGoodputAtOverload(t *testing.T) {
	const (
		workers    = 2
		stageDelay = 2 * time.Millisecond
		deadline   = 30 * time.Millisecond
		requests   = 300
		// Capacity is workers / (3 × stageDelay); arrivals come at twice it.
		interval = 3 * stageDelay / (2 * workers)
	)
	goodput := func(admission bool) int {
		execs := make([]StageExecutor, workers)
		for i := range execs {
			execs[i] = &slowExec{delay: stageDelay}
		}
		l, err := NewLive(LiveConfig{
			Workers: workers, Deadline: deadline, QueueDepth: 64, MaxBatch: 1,
			Admission: admission,
		}, NewGreedy(1, flatPriors(), "g"), execs)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Stop()
		ctx := context.Background()
		// Sequential traffic warms the cost model past its gate, where
		// admission starts to decide; both pools get the same.
		for i := 0; i < admitWarmup; i++ {
			if _, err := l.Submit(ctx, []float64{1}, 3); err != nil {
				t.Fatalf("warm-up submit %d (admission %v): %v", i, admission, err)
			}
		}
		var good atomic.Int64
		var wg sync.WaitGroup
		next := time.Now()
		for i := 0; i < requests; i++ {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			// Open loop: arrival i+1 is due interval after arrival i
			// whatever has completed, so the offered load never throttles
			// itself to the service rate.
			next = next.Add(interval)
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				resp, err := l.Submit(ctx, []float64{1}, 3)
				if err == nil && !resp.Expired && time.Since(start) <= deadline {
					good.Add(1)
				}
			}()
		}
		wg.Wait()
		return int(good.Load())
	}
	off, on := goodput(false), goodput(true)
	// What the capacity serves while the arrivals come: 150 tasks.
	capacity := float64(workers) / (3 * stageDelay).Seconds() * (requests * interval).Seconds()
	t.Logf("goodput at 2x capacity, %d requests: admission off %d, on %d (on/off %.2f, on/capacity %.2f)",
		requests, off, on, float64(on)/float64(max(off, 1)), float64(on)/capacity)
	if on == 0 || float64(on) < 0.95*float64(off) {
		t.Fatalf("admission on answered %d requests in time, off %d: want on ≥ 0.95 × off", on, off)
	}
	if float64(on) < 0.6*capacity {
		t.Fatalf("admission on answered %d requests in time: want ≥ 0.6 × the %.0f the capacity serves", on, capacity)
	}
}

// TestGoodputCounter checks that answered-within-deadline tasks land in
// LiveStats.Goodput and expired ones do not.
func TestGoodputCounter(t *testing.T) {
	l := newTestLive(t, 2, time.Second, 0)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := l.Submit(ctx, []float64{1}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Goodput != 8 {
		t.Fatalf("Goodput = %d, want 8", st.Goodput)
	}
}
