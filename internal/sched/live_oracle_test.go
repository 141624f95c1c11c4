package sched

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// stubPredictor promises a fresh task a gain of 0.15 and a started one
// a third of its remaining headroom. Against echoExec's confidences
// (≈0.4 + 0.1·stage) that makes Greedy leave a task after two or three
// stages for a fresh one, so its pick order differs from FIFO's and
// RR's; and a plan over fresh tasks alone starts with three stages of
// the first (0.15 → gain 0.28 → gain 0.19, both above 0.15).
type stubPredictor struct{}

func (stubPredictor) Prior(int) float64 { return 0.15 }

func (stubPredictor) Predict(_ int, _, cur float64, _ int) float64 { return cur + (1-cur)/3 }

// pick is one policy decision: the task, by submission index, and the
// stage it was picked to run.
type pick struct{ task, stage int }

// recordingPolicy logs every pick the wrapped policy makes. firstID is
// the ID of the first task submitted (Live counts from 1, Simulate from
// 0).
type recordingPolicy struct {
	Policy
	firstID int
	picks   []pick
}

func (r *recordingPolicy) leader(q *queue, now Ticks) *liveTask {
	t := r.Policy.leader(q, now)
	r.picks = append(r.picks, pick{t.state.Task.ID - r.firstID, t.state.Executed})
	return t
}

// TestLiveMatchesSimulate runs the one scheduler core under its two
// drivers, Live on the wall clock and Simulate on a virtual one: one
// worker, no coalescing, a deadline nothing reaches and one batch of
// tasks that are all in the system from the start. Every policy must
// then make the same (task, stage) picks in the same order under both,
// and every task must leave at the same stage. What Live adds around the
// core — goroutines, the condition variable, submission as one batch —
// may not show in the schedule.
//
// Simulate admits its time-0 arrivals one event at a time, so its first
// pick sees task 0 alone where Live's sees all n; stubPredictor is
// chosen so that a k=3 plan starts the same way over either.
func TestLiveMatchesSimulate(t *testing.T) {
	const n, stages = 12, 4
	// Fractional inputs give every task its own confidence at every
	// stage, so no greedy pick rests on a tie.
	inputs := func() [][]float64 {
		in := make([][]float64, n)
		for i := range in {
			in[i] = []float64{1.37 * float64(i)}
		}
		return in
	}
	for _, tc := range []struct {
		name string
		make func() Policy
	}{
		{"Greedy-1", func() Policy { return NewGreedy(1, stubPredictor{}, "g1") }},
		{"Greedy-3", func() Policy { return NewGreedy(3, stubPredictor{}, "g3") }},
		{"RR", func() Policy { return NewRoundRobin() }},
		{"FIFO", func() Policy { return NewFIFO() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simPolicy := &recordingPolicy{Policy: tc.make()}
			echo := &echoExec{}
			in := inputs()
			m, err := Simulate(SimConfig{Workers: 1, Concurrency: n, TotalTasks: n, StageCost: 1, Deadline: 1 << 40},
				simPolicy, func(id int) *Task {
					h := in[id]
					return &Task{NumStages: stages, Run: func(stage int) StageResult {
						var res StageResult
						h, res = echo.result(h, stage)
						return res
					}}
				})
			if err != nil {
				t.Fatal(err)
			}

			livePolicy := &recordingPolicy{Policy: tc.make(), firstID: 1}
			l, err := NewLive(LiveConfig{Workers: 1, Deadline: time.Minute, QueueDepth: n, MaxBatch: 1},
				livePolicy, []StageExecutor{&echoExec{}})
			if err != nil {
				t.Fatal(err)
			}
			resps, err := l.SubmitBatch(context.Background(), inputs(), stages)
			l.Stop() // the worker's last write to the pick log happens before Stop returns
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(livePolicy.picks, simPolicy.picks) {
				t.Fatalf("pick order differs\nlive: %v\nsim:  %v", livePolicy.picks, simPolicy.picks)
			}
			if len(simPolicy.picks) != n*stages {
				t.Fatalf("%d picks for %d tasks of %d stages", len(simPolicy.picks), n, stages)
			}
			for _, o := range m.Outcomes {
				if r := resps[o.ID]; r.Stages != o.Stages || r.Expired != o.Expired {
					t.Errorf("task %d: live left at stage %d (expired %v), sim at %d (%v)", o.ID, r.Stages, r.Expired, o.Stages, o.Expired)
				}
			}
		})
	}
}
