package sched

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// allocExec is an allocation-free echo executor for AllocsPerRun
// measurements: results live in reused scratch and hidden rows pass
// through untouched, so every allocation the test observes belongs to
// the scheduler itself (pick, dispatch, finalize, arena bookkeeping).
type allocExec struct {
	res []StageResult
}

func (e *allocExec) NumStages() int { return 3 }

func (e *allocExec) ExecStageBatch(hidden [][]float64, stage int, _ [][]float64) ([][]float64, []StageResult) {
	if cap(e.res) < len(hidden) {
		e.res = make([]StageResult, len(hidden))
	}
	res := e.res[:len(hidden)]
	for i := range res {
		res[i] = StageResult{Pred: stage, Conf: 0.5 + 0.15*float64(stage+1)}
	}
	return hidden, res
}

// modelExec runs a real staged model under the scheduler the way
// core's adapter does, so the allocations of the forward pass (tensor's
// kernels among them) count against the pool that dispatched it.
type modelExec struct {
	m   *staged.Model
	res []StageResult
}

func (e *modelExec) NumStages() int { return e.m.NumStages() }

func (e *modelExec) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []StageResult) {
	next, outs := e.m.ExecStageBatch(hidden, stage, dst)
	if cap(e.res) < len(outs) {
		e.res = make([]StageResult, len(outs))
	}
	res := e.res[:len(outs)]
	for i, o := range outs {
		res[i] = StageResult{Pred: o.Pred, Conf: o.Conf}
	}
	return next, res
}

// measureLiveAllocs reports the steady-state allocations per request of
// a pool with one worker per executor submitting batches of the given
// size and input width, after a warmup that fills the task arena, the
// per-worker row freelists, and the deadline heap.
func measureLiveAllocs(t *testing.T, policy Policy, execs []StageExecutor, dim, batch int) float64 {
	t.Helper()
	l, err := NewLive(LiveConfig{Workers: len(execs), Deadline: 5 * time.Second, QueueDepth: 4 * batch},
		policy, execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Stop)
	ctx := context.Background()
	inputs := make([][]float64, batch)
	for i := range inputs {
		inputs[i] = make([]float64, dim)
		for j := range inputs[i] {
			inputs[i][j] = float64(j + 1)
		}
	}
	submit := func() {
		resps, err := l.SubmitBatch(ctx, inputs, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range resps {
			if r.Stages != 3 {
				t.Fatalf("response ran %d stages, want 3: %+v", r.Stages, r)
			}
		}
	}
	for i := 0; i < 50; i++ {
		submit()
	}
	return testing.AllocsPerRun(100, submit) / float64(batch)
}

// TestLiveAllocsPerRequest is the dynamic half of the hotpathalloc
// contract: the //eugene:noalloc annotations promise the pick,
// dispatch, and finalize paths stay allocation-free in steady state,
// the static analyzer rejects the obvious regressions at vet time, and
// this test pins what escape analysis actually decides at run time. The
// bounds leave headroom over the measured steady state (≈0.03/req; the
// sched.allocs_per_row ledger row of bench/README.md) while still
// failing hard if pooling breaks — losing the task arena or the row
// freelist costs several allocations per request. The Greedy rows cover
// the policy core installs: its plan runs on every dispatch and must
// not allocate per candidate.
func TestLiveAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	for _, tc := range []struct {
		policy  Policy
		workers int
		batch   int
		limit   float64
	}{
		{policy: NewFIFO(), workers: 1, batch: 64, limit: 0.25},
		{policy: NewFIFO(), workers: 4, batch: 64, limit: 1.0},
		{policy: NewGreedy(1, stubPredictor{}, "greedy-1"), workers: 1, batch: 64, limit: 0.25},
		{policy: NewGreedy(1, stubPredictor{}, "greedy-1"), workers: 4, batch: 64, limit: 1.0},
	} {
		execs := make([]StageExecutor, tc.workers)
		for i := range execs {
			execs[i] = &allocExec{}
		}
		got := measureLiveAllocs(t, tc.policy, execs, 3, tc.batch)
		t.Logf("%s workers=%d batch=%d: %.4f allocs/request", tc.policy.Name(), tc.workers, tc.batch, got)
		if got > tc.limit {
			t.Errorf("%s workers=%d: %.4f allocs/request, budget %.2f — a hot-path pool or arena regressed", tc.policy.Name(), tc.workers, got, tc.limit)
		}
	}
}

// TestLiveAllocsAtServingShape runs the model cmd/eugenebench serves
// (dim 32, hidden 256, 3×2 blocks, head bottlenecks 8/12/0) under two
// workers with tensor parallelism 2, 128-row batches that the two idle
// workers split into groups of 64, the MaxBatch the benchmark's two
// callers' batches run at: the sched.allocs_per_row ledger row. Every
// GEMM of that shape must run inline on the worker that owns the group,
// so the budget is the scheduler's own and the forward pass adds nothing
// to it.
func TestLiveAllocsAtServingShape(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	m, err := staged.New(rand.New(rand.NewSource(11)), staged.Config{
		In: 32, Hidden: 256, Classes: 10,
		StageCount: 3, BlocksPerStage: 2,
		HeadBottlenecks: []int{8, 12, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	execs := []StageExecutor{&modelExec{m: m}, &modelExec{m: m.Clone()}}
	got := measureLiveAllocs(t, NewFIFO(), execs, 32, 128)
	t.Logf("serving shape, 2 workers: %.4f allocs/request", got)
	if got > 0.1 {
		t.Errorf("%.4f allocs/request at the serving shape, budget 0.1 — the forward pass allocates under the scheduler", got)
	}
}
