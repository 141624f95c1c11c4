// Package sched implements Eugene's utility-maximizing inference
// scheduling (paper Section III): the greedy RTDeepIoT-k scheduler with
// lookahead, the constant-slope RTDeepIoT-DC-k variant, and stage-level
// round-robin and FIFO baselines. One scheduler core (queue) holds the
// ready tasks, picks, groups, requeues and expires them, deciding expiry
// from the time it is given, and two drivers run it: Live, a
// goroutine-pool executor on the wall clock, and Simulate, a
// deterministic closed loop on a virtual clock. FuzzQueue holds the core
// to an exact model of every task after each step, and the policies rely
// on what it proves: every task queued when they lead is runnable.
package sched

import (
	"fmt"
	"math"
)

// Ticks is virtual time. One stage of the reference model costs
// StageCost ticks on one worker.
type Ticks = int64

// StageResult is what a worker reports to the scheduler after finishing
// a stage: the classification and its (calibrated) confidence.
type StageResult struct {
	Pred int
	Conf float64
}

// Task is one inference request: a sample flowing through a staged
// model under a latency constraint.
type Task struct {
	// ID is unique within a simulation.
	ID int
	// Label is the ground-truth class, used only for metrics.
	Label int
	// NumStages is the total number of exit stages.
	NumStages int
	// Run executes the given stage (stages must run in order) and
	// returns the exit output. Supplied by the caller; the experiments
	// read it from one staged.Model.PredictRows pass.
	Run func(stage int) StageResult
	// Weight scales this task's utility in weighted scheduling — the
	// paper's Section V service-class extension ("an interactive voice
	// chatbot might have significantly tighter latency constraints
	// than an intrusion detection camera"). 0 means 1.
	Weight float64
	// RelDeadline overrides the simulation-wide latency constraint
	// for this task when positive (per-service-class deadlines).
	RelDeadline Ticks
	// Class is an optional service-class tag for metrics.
	Class string
}

// EffectiveWeight returns Weight, defaulting to 1.
func (t *Task) EffectiveWeight() float64 {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// TaskState is the scheduler-visible state of a queued task.
type TaskState struct {
	Task     *Task
	Arrival  Ticks
	Deadline Ticks // absolute
	// Executed is the number of completed stages.
	Executed int
	// Conf is the confidence after the last executed stage (0 before
	// any stage has run: an unanswered task has no utility).
	Conf float64
	// PrevConf is the confidence before the last executed stage (0
	// until two observations exist); the DC predictor's slope input.
	PrevConf float64
	// Pred is the current answer (−1 before any stage has run).
	Pred int
}

// Remaining returns the number of stages not yet executed.
func (s *TaskState) Remaining() int { return s.Task.NumStages - s.Executed }

// Predictor estimates confidence at future stages (paper Section III-B).
type Predictor interface {
	// Prior returns the expected confidence at the given stage before
	// any stage of the task has executed (training-set statistics).
	Prior(stage int) float64
	// Predict estimates the confidence at stage target (> last) for a
	// task whose last executed stage is last, given the confidence cur
	// observed there and prev observed at stage last−1 (or the prior
	// if last == 0).
	Predict(last int, prev, cur float64, target int) float64
}

// Policy selects which queued task's next stage to execute. The
// scheduler core asks it for a key for each task as the task is queued;
// the task's state does not change until it leaves the queue, so the
// key holds that long. The core indexes its tasks by key: its best is
// the least key, ties to the earlier task in ready order (stage by
// stage, each stage's tasks in the order they became ready). When a
// worker is free and the queue is not empty, the core calls leader,
// which returns the queued task to run next, found with the core's
// help. Every queued task is then runnable at now, with a stage left
// and due after now (the core's sweep answers the overdue ones first);
// now lets a policy weigh each task's slack. FuzzQueue's oracle holds
// the core and the policies to this contract, against reference models
// that pick from the whole candidate list. Policies may keep internal
// state (timelines, rotation cursors); an instance serves one queue,
// called from a single goroutine at a time (the live executor picks
// under its queue lock). Only Name is exported: the policies are this
// package's.
type Policy interface {
	Name() string
	key(t *liveTask) rank
	leader(q *queue, now Ticks) *liveTask
}

// TaskOutcome records one task's fate for metrics.
type TaskOutcome struct {
	ID       int
	Class    string
	Stages   int  // stages executed before completion/expiry
	Correct  bool // final answer matched the label
	Answered bool // at least one stage executed
	Expired  bool // deadline passed before all stages ran
	// Latency is finalization time minus arrival.
	Latency Ticks
}

// Metrics aggregates task outcomes from one simulation run.
type Metrics struct {
	Outcomes []TaskOutcome
}

// Accuracy is the fraction of tasks whose final answer was correct
// (unanswered tasks count as incorrect — the paper accrues no utility
// for tasks that are not completed).
func (m *Metrics) Accuracy() float64 {
	if len(m.Outcomes) == 0 {
		return 0
	}
	var ok int
	for _, o := range m.Outcomes {
		if o.Correct {
			ok++
		}
	}
	return float64(ok) / float64(len(m.Outcomes))
}

// MeanStages is the average number of executed stages per task.
func (m *Metrics) MeanStages() float64 {
	if len(m.Outcomes) == 0 {
		return 0
	}
	var sum int
	for _, o := range m.Outcomes {
		sum += o.Stages
	}
	return float64(sum) / float64(len(m.Outcomes))
}

// ExpiredRate is the fraction of tasks cut off by their deadline.
func (m *Metrics) ExpiredRate() float64 {
	if len(m.Outcomes) == 0 {
		return 0
	}
	var n int
	for _, o := range m.Outcomes {
		if o.Expired {
			n++
		}
	}
	return float64(n) / float64(len(m.Outcomes))
}

// UnansweredRate is the fraction of tasks that never executed a stage.
func (m *Metrics) UnansweredRate() float64 {
	if len(m.Outcomes) == 0 {
		return 0
	}
	var n int
	for _, o := range m.Outcomes {
		if !o.Answered {
			n++
		}
	}
	return float64(n) / float64(len(m.Outcomes))
}

// ClassAccuracy returns per-class accuracy and expiry rates keyed by
// the tasks' service-class tags (the Section V extension's metric).
func (m *Metrics) ClassAccuracy() map[string]ClassStats {
	out := make(map[string]ClassStats)
	for _, o := range m.Outcomes {
		st := out[o.Class]
		st.Total++
		if o.Correct {
			st.Correct++
		}
		if o.Expired {
			st.Expired++
		}
		if !o.Answered {
			st.Unanswered++
		}
		out[o.Class] = st
	}
	return out
}

// ClassStats aggregates outcomes of one service class.
type ClassStats struct {
	Total, Correct, Expired, Unanswered int
}

// Accuracy returns the class's accuracy.
func (c ClassStats) Accuracy() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Correct) / float64(c.Total)
}

// ExpiredRate returns the class's deadline-miss rate.
func (c ClassStats) ExpiredRate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Expired) / float64(c.Total)
}

// StreamAccuracyStd partitions tasks into n client streams by task ID
// modulo n (the closed-loop equivalent of the paper's concurrent
// processes) and returns the standard deviation of per-stream accuracy —
// the fairness metric of Figure 4c. Low deviation means the scheduler
// served all streams equally well.
func (m *Metrics) StreamAccuracyStd(n int) float64 {
	if n < 1 || len(m.Outcomes) == 0 {
		return 0
	}
	right := make([]int, n)
	total := make([]int, n)
	for _, o := range m.Outcomes {
		s := o.ID % n
		total[s]++
		if o.Correct {
			right[s]++
		}
	}
	var accs []float64
	for s := 0; s < n; s++ {
		if total[s] > 0 {
			accs = append(accs, float64(right[s])/float64(total[s]))
		}
	}
	if len(accs) == 0 {
		return 0
	}
	var mean float64
	for _, a := range accs {
		mean += a
	}
	mean /= float64(len(accs))
	var v float64
	for _, a := range accs {
		v += (a - mean) * (a - mean)
	}
	return math.Sqrt(v / float64(len(accs)))
}

// String summarizes the run.
func (m *Metrics) String() string {
	return fmt.Sprintf("acc=%.3f stages=%.2f expired=%.2f unanswered=%.2f n=%d",
		m.Accuracy(), m.MeanStages(), m.ExpiredRate(), m.UnansweredRate(), len(m.Outcomes))
}
