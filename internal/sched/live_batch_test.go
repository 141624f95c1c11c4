package sched

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// echoExec is a deterministic executor whose results depend on the
// task's hidden state, so any row mix-up inside the batched path changes
// answers. The hidden state evolves per stage (h[0] += 1); confidence
// and prediction are functions of (input, stage). ExecStageBatch mirrors
// ExecStage exactly and records the stage and size of every dispatch.
type echoExec struct {
	delay time.Duration

	mu      sync.Mutex
	batches []int
	stages  []int
}

func (e *echoExec) NumStages() int { return 3 }

func (e *echoExec) result(h []float64, stage int) ([]float64, StageResult) {
	next := append([]float64(nil), h...)
	next[0]++
	conf := 0.4 + 0.1*float64(stage) + 0.01*math.Mod(h[0], 7)
	return next, StageResult{Pred: int(h[0]), Conf: conf}
}

func (e *echoExec) record(stage, n int) {
	e.mu.Lock()
	e.batches = append(e.batches, n)
	e.stages = append(e.stages, stage)
	e.mu.Unlock()
}

func (e *echoExec) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []StageResult) {
	// One delay per dispatch, like one batched GEMM.
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	e.record(stage, len(hidden))
	next := make([][]float64, len(hidden))
	res := make([]StageResult, len(hidden))
	for i, h := range hidden {
		next[i], res[i] = e.result(h, stage)
		// Exercise the worker-arena contract when scratch rows fit.
		if i < len(dst) && cap(dst[i]) >= len(next[i]) {
			next[i] = append(dst[i][:0], next[i]...)
		}
	}
	return next, res
}

// maxBatchSeen returns the largest dispatch the executors processed.
func maxBatchSeen(execs []StageExecutor) int {
	best := 0
	for _, ex := range execs {
		e := ex.(*echoExec)
		e.mu.Lock()
		for _, n := range e.batches {
			if n > best {
				best = n
			}
		}
		e.mu.Unlock()
	}
	return best
}

func newEchoLive(t *testing.T, workers, maxBatch int, deadline, delay time.Duration) (*Live, []StageExecutor) {
	t.Helper()
	execs := make([]StageExecutor, workers)
	for i := range execs {
		execs[i] = &echoExec{delay: delay}
	}
	l, err := NewLive(LiveConfig{Workers: workers, Deadline: deadline, QueueDepth: 128, MaxBatch: maxBatch},
		NewFIFO(), execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	return l, execs
}

// TestLiveBatchMatchesSequential submits identical inputs through the
// sequential Submit path and the coalescing SubmitBatch path and
// requires identical Pred/Conf per task — batching must not change
// answers. Run with -race this also exercises the scratch-ownership
// discipline across scheduler, workers, and executor.
func TestLiveBatchMatchesSequential(t *testing.T) {
	const n = 24
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = []float64{float64(i), 0.5}
	}

	seq, _ := newEchoLive(t, 2, 1, time.Minute, 0)
	seqResps := make([]Response, n)
	for i, in := range inputs {
		r, err := seq.Submit(context.Background(), append([]float64(nil), in...), 3)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		seqResps[i] = r
	}

	bat, execs := newEchoLive(t, 2, 8, time.Minute, 0)
	batResps, err := bat.SubmitBatch(context.Background(), inputs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		s, b := seqResps[i], batResps[i]
		if s.Stages != 3 || b.Stages != 3 {
			t.Fatalf("task %d: stages seq=%d bat=%d, want 3", i, s.Stages, b.Stages)
		}
		if s.Pred != b.Pred || math.Abs(s.Conf-b.Conf) > 1e-12 {
			t.Fatalf("task %d: sequential (%d, %v) vs batched (%d, %v)", i, s.Pred, s.Conf, b.Pred, b.Conf)
		}
	}
	if got := maxBatchSeen(execs); got < 2 {
		t.Fatalf("batched path never coalesced: max dispatch %d", got)
	}
}

// TestLiveMaxBatchHonored pins the MaxBatch cap: with a single worker
// and 16 same-stage tasks, dispatches must coalesce but never exceed
// the configured cap.
func TestLiveMaxBatchHonored(t *testing.T) {
	const maxBatch = 4
	l, execs := newEchoLive(t, 1, maxBatch, time.Minute, 0)
	inputs := make([][]float64, 16)
	for i := range inputs {
		inputs[i] = []float64{float64(i)}
	}
	if _, err := l.SubmitBatch(context.Background(), inputs, 3); err != nil {
		t.Fatal(err)
	}
	e := execs[0].(*echoExec)
	e.mu.Lock()
	defer e.mu.Unlock()
	coalesced := false
	for _, n := range e.batches {
		if n > maxBatch {
			t.Fatalf("dispatch of %d tasks exceeds MaxBatch %d", n, maxBatch)
		}
		if n > 1 {
			coalesced = true
		}
	}
	if !coalesced {
		t.Fatal("no dispatch was coalesced")
	}
}

// TestLiveExpiryInsideBatch drives a coalesced batch into its deadline:
// every task must come back expired with partial depth, per-task, and
// the executor must keep serving afterwards.
func TestLiveExpiryInsideBatch(t *testing.T) {
	const n = 6
	// 3 stages × 60ms per dispatch ≈ 180ms full execution against an
	// 80ms deadline: tasks run 1–2 stages, then expire as a group.
	l, _ := newEchoLive(t, 1, 8, 80*time.Millisecond, 60*time.Millisecond)
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = []float64{float64(i)}
	}
	resps, err := l.SubmitBatch(context.Background(), inputs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if !r.Expired {
			t.Fatalf("task %d: %+v, want expired", i, r)
		}
		if r.Stages == 0 || r.Stages >= 3 {
			t.Fatalf("task %d expired with %d stages, want partial execution", i, r.Stages)
		}
	}
	if s := l.Stats(); s.Expired != n || s.QueueDepth != 0 {
		t.Fatalf("stats %+v, want %d expired and empty queue", s, n)
	}
	// The pool must still answer fresh work after a batch-wide expiry.
	// Let the worker finish the abandoned in-flight stage first — as in
	// the paper, expiry cannot preempt a stage mid-GEMM, so a
	// task submitted while the worker drains would burn deadline
	// waiting for it.
	time.Sleep(150 * time.Millisecond)
	r, err := l.Submit(context.Background(), []float64{99}, 1)
	if err != nil || r.Stages != 1 {
		t.Fatalf("post-expiry submit: %+v, %v", r, err)
	}
}
