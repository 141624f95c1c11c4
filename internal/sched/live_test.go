package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eugene/internal/tensor"
)

// slowExec is a deterministic 3-stage executor with a configurable
// per-stage compute delay.
type slowExec struct {
	delay time.Duration
}

func (e *slowExec) NumStages() int { return 3 }

func (e *slowExec) ExecStageBatch(hidden [][]float64, stage int, _ [][]float64) ([][]float64, []StageResult) {
	// One delay per batched dispatch: batching amortizes compute.
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	// Confidence grows with stage; prediction encodes the stage count
	// so tests can check how deep execution went.
	res := make([]StageResult, len(hidden))
	for i := range res {
		res[i] = StageResult{Pred: stage, Conf: 0.5 + 0.15*float64(stage+1)}
	}
	return hidden, res
}

func newTestLive(t *testing.T, workers int, deadline, delay time.Duration) *Live {
	t.Helper()
	execs := make([]StageExecutor, workers)
	for i := range execs {
		execs[i] = &slowExec{delay: delay}
	}
	l, err := NewLive(LiveConfig{Workers: workers, Deadline: deadline, QueueDepth: 64},
		NewGreedy(1, flatPriors(), "g"), execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	return l
}

func TestLiveCompletesAllStages(t *testing.T) {
	l := newTestLive(t, 2, time.Second, 0)
	resp, err := l.Submit(context.Background(), []float64{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stages != 3 || resp.Expired {
		t.Fatalf("response %+v, want 3 stages not expired", resp)
	}
	if resp.Pred != 2 {
		t.Fatalf("final pred %d, want stage-2 output", resp.Pred)
	}
	if resp.Conf < 0.9 {
		t.Fatalf("final conf %v", resp.Conf)
	}
}

func TestLiveConcurrentSubmissions(t *testing.T) {
	l := newTestLive(t, 4, time.Second, time.Millisecond)
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = l.Submit(context.Background(), []float64{float64(i)}, 3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("task %d: %v", i, errs[i])
		}
		if resps[i].Stages != 3 {
			t.Fatalf("task %d ran %d stages", i, resps[i].Stages)
		}
	}
}

func TestLiveDeadlineExpiry(t *testing.T) {
	// One worker, slow stages, deadline shorter than full execution:
	// the task must come back expired with partial depth.
	l := newTestLive(t, 1, 60*time.Millisecond, 25*time.Millisecond)
	resp, err := l.Submit(context.Background(), []float64{1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Expired {
		t.Fatalf("response %+v, want expired", resp)
	}
	if resp.Stages == 0 || resp.Stages >= 3 {
		t.Fatalf("expired with %d stages, want partial execution", resp.Stages)
	}
}

func TestLiveContextCancellation(t *testing.T) {
	l := newTestLive(t, 1, time.Second, 50*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := l.Submit(ctx, []float64{1}, 3); err == nil {
		t.Fatal("expected context error")
	}
}

func TestLiveStopRejectsSubmissions(t *testing.T) {
	l := newTestLive(t, 1, time.Second, 0)
	l.Stop()
	// After stop the submit channel is no longer drained; Submit must
	// return ErrStopped rather than hang.
	_, err := l.Submit(context.Background(), []float64{1}, 3)
	if err == nil {
		t.Fatal("expected error after Stop")
	}
}

func TestLiveConfigValidate(t *testing.T) {
	bad := []LiveConfig{
		{Workers: 0, Deadline: time.Second, QueueDepth: 1},
		{Workers: 1, Deadline: 0, QueueDepth: 1},
		{Workers: 1, Deadline: time.Second, QueueDepth: 0},
		{Workers: 1, Deadline: time.Second, QueueDepth: 1, MaxBatch: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad live config %d accepted", i)
		}
	}
	if _, err := NewLive(LiveConfig{Workers: 2, Deadline: time.Second, QueueDepth: 1}, nil, nil); err == nil {
		t.Fatal("expected nil-policy error")
	}
	if _, err := NewLive(LiveConfig{Workers: 2, Deadline: time.Second, QueueDepth: 1},
		NewFIFO(), []StageExecutor{&slowExec{}}); err == nil {
		t.Fatal("expected executor-count error")
	}
}

func TestLiveSubmitValidation(t *testing.T) {
	l := newTestLive(t, 1, time.Second, 0)
	if _, err := l.Submit(context.Background(), []float64{1}, 0); err == nil {
		t.Fatal("expected error for zero stages")
	}
	if _, err := l.SubmitBatch(context.Background(), [][]float64{{1}}, 0); err == nil {
		t.Fatal("expected batch error for zero stages")
	}
}

func TestLiveSubmitBatch(t *testing.T) {
	l := newTestLive(t, 4, time.Second, time.Millisecond)
	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = []float64{float64(i)}
	}
	resps, err := l.SubmitBatch(context.Background(), inputs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(inputs) {
		t.Fatalf("%d responses for %d inputs", len(resps), len(inputs))
	}
	for i, r := range resps {
		if r.Stages != 3 || r.Expired {
			t.Fatalf("batch item %d: %+v, want 3 stages not expired", i, r)
		}
		if r.Pred != 2 {
			t.Fatalf("batch item %d pred %d, want stage-2 output", i, r.Pred)
		}
	}
	if resps, err := l.SubmitBatch(context.Background(), nil, 3); err != nil || len(resps) != 0 {
		t.Fatalf("empty batch: %v, %v", resps, err)
	}
}

func TestLiveSubmitBatchBoundedByQueueDepth(t *testing.T) {
	l := newTestLive(t, 2, time.Second, 0) // QueueDepth 64
	inputs := make([][]float64, 65)
	for i := range inputs {
		inputs[i] = []float64{1}
	}
	if _, err := l.SubmitBatch(context.Background(), inputs, 3); err == nil {
		t.Fatal("expected queue-depth error for oversized batch")
	}
	if s := l.Stats(); s.Submitted != 0 || s.QueueDepth != 0 {
		t.Fatalf("rejected batch leaked into stats: %+v", s)
	}
}

func TestLiveSubmitBatchAfterStop(t *testing.T) {
	l := newTestLive(t, 2, time.Second, 0)
	l.Stop()
	if _, err := l.SubmitBatch(context.Background(), [][]float64{{1}, {2}}, 3); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

// TestLiveSingleDeadlineFromCall holds a single submission to the
// paper's rule that a latency constraint counts from the request's
// arrival: with the only worker busy on another single, a second one
// must be answered within its deadline plus the stage in flight at it,
// and the latency it reports must be the time since its call.
func TestLiveSingleDeadlineFromCall(t *testing.T) {
	const (
		stage    = 100 * time.Millisecond
		deadline = 120 * time.Millisecond
		slack    = 50 * time.Millisecond
	)
	l, err := NewLive(LiveConfig{Workers: 1, Deadline: deadline, QueueDepth: 1},
		NewFIFO(), []StageExecutor{&slowExec{delay: stage}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	first := make(chan struct{})
	go func() {
		defer close(first)
		_, _ = l.Submit(context.Background(), []float64{1}, 3)
	}()
	// Wait until a worker has taken the first single off the queue.
	for queued := true; queued; {
		time.Sleep(time.Millisecond)
		l.mu.Lock()
		queued = l.submitted.Load() == 0 || l.q.n > 0
		l.mu.Unlock()
	}
	start := time.Now()
	r, err := l.Submit(context.Background(), []float64{2}, 3)
	wall := time.Since(start)
	<-first
	if err != nil && err != ErrUnanswered {
		t.Fatalf("second single: %v", err)
	}
	if wall > deadline+stage+slack {
		t.Errorf("second single answered %v after its call, want ≤ %v (deadline + one stage + slack)", wall, deadline+stage+slack)
	}
	if d := r.Latency - wall; d < -20*time.Millisecond || d > 20*time.Millisecond {
		t.Errorf("second single reports latency %v, measured %v since its call", r.Latency, wall)
	}
}

func TestLiveExpiryUnanswered(t *testing.T) {
	// One worker whose single in-flight stage outlives the deadline:
	// its commit must discard the late result and answer with zero
	// stages, and Submit must surface ErrUnanswered.
	l := newTestLive(t, 1, 20*time.Millisecond, 200*time.Millisecond)
	resp, err := l.Submit(context.Background(), []float64{1}, 3)
	if err != ErrUnanswered {
		t.Fatalf("err = %v, want ErrUnanswered", err)
	}
	if !resp.Expired || resp.Stages != 0 || !resp.Unanswered() {
		t.Fatalf("response %+v, want expired with zero stages", resp)
	}
}

func TestLiveStats(t *testing.T) {
	l := newTestLive(t, 2, time.Second, time.Millisecond)
	if s := l.Stats(); s.Submitted != 0 || s.QueueDepth != 0 {
		t.Fatalf("fresh stats %+v", s)
	}
	const n = 8
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = []float64{float64(i)}
	}
	if _, err := l.SubmitBatch(context.Background(), inputs, 3); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.Submitted != n || s.Answered != n || s.Expired != 0 || s.Unanswered != 0 {
		t.Fatalf("stats %+v, want %d submitted and answered", s, n)
	}
	if s.QueueDepth != 0 {
		t.Fatalf("queue depth %d after all tasks finished", s.QueueDepth)
	}
	if s.P50 <= 0 || s.P99 < s.P50 {
		t.Fatalf("percentiles p50=%v p99=%v", s.P50, s.P99)
	}
}

func TestLiveStatsCountsExpiry(t *testing.T) {
	l := newTestLive(t, 1, 20*time.Millisecond, 200*time.Millisecond)
	_, _ = l.Submit(context.Background(), []float64{1}, 3)
	s := l.Stats()
	if s.Expired != 1 || s.Unanswered != 1 {
		t.Fatalf("stats %+v, want 1 expired and unanswered", s)
	}
}

// blockExec is a 3-stage executor whose dispatches report on entered
// and then wait for release to close.
type blockExec struct {
	entered chan struct{}
	release chan struct{}
}

func (e *blockExec) NumStages() int { return 3 }

func (e *blockExec) ExecStageBatch(hidden [][]float64, stage int, _ [][]float64) ([][]float64, []StageResult) {
	e.entered <- struct{}{}
	<-e.release
	return hidden, make([]StageResult, len(hidden))
}

// eachOverlaps runs two tensor.Each tasks, each waiting up to wait for
// the other to be running at the same time, and reports whether they
// were.
func eachOverlaps(wait time.Duration) bool {
	var active atomic.Int32
	var overlapped atomic.Bool
	tensor.Each(2, func(int) {
		active.Add(1)
		for deadline := time.Now().Add(wait); time.Now().Before(deadline) && !overlapped.Load(); runtime.Gosched() {
			if active.Load() == 2 {
				overlapped.Store(true)
			}
		}
		active.Add(-1)
	})
	return overlapped.Load()
}

// TestDispatchHoldsItsCore: a dispatch holds its worker's core in
// tensor's occupancy count for as long as it runs, so while one is in
// flight on each of two workers (on a limit of two) tensor.Each takes no
// helper; before and after, it does.
func TestDispatchHoldsItsCore(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	if !eachOverlaps(10 * time.Second) {
		t.Fatal("with both cores free, Each ran its tasks one at a time")
	}
	exec := &blockExec{entered: make(chan struct{}, 6), release: make(chan struct{})} // 2 tasks × 3 stages
	l, err := NewLive(LiveConfig{Workers: 2, Deadline: time.Minute, QueueDepth: 4, MaxBatch: 1},
		NewGreedy(1, flatPriors(), "g"), []StageExecutor{exec, exec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := l.Submit(context.Background(), []float64{1}, 3); err != nil {
				t.Error(err)
			}
		}()
	}
	<-exec.entered
	<-exec.entered
	if eachOverlaps(100 * time.Millisecond) {
		t.Error("Each took a helper while a dispatch held each core")
	}
	close(exec.release)
	wg.Wait()
	if !eachOverlaps(10 * time.Second) {
		t.Error("after the dispatches, Each ran its tasks one at a time: a dispatch kept its hold")
	}
}
