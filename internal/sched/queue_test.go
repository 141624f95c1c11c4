package sched

import (
	"math"
	"math/rand"
	"testing"
)

// queuedTask builds a core task: the id-th to arrive (at tick id), of
// submission sub, ready for the given stage of three, due at deadline.
func queuedTask(id int, sub int64, stage int, deadline Ticks) *liveTask {
	t := &liveTask{sub: sub}
	t.task = Task{ID: id, NumStages: 3}
	t.state = TaskState{Task: &t.task, Arrival: Ticks(id), Deadline: deadline, Executed: stage, Pred: -1}
	return t
}

// testDriver is a driver on a fake clock: it records every answer and
// caps groups as admission would at stageCost ticks a stage (no cap when
// zero).
type testDriver struct {
	stageCost Ticks
	finished  map[*liveTask]int
	onTime    []finishRecord
	expired   []finishRecord
}

// finishRecord is one answer: the task and the tick it was given.
type finishRecord struct {
	t   *liveTask
	now Ticks
}

func (d *testDriver) finish(t *liveTask, expired bool, now Ticks) {
	if d.finished == nil {
		d.finished = make(map[*liveTask]int)
	}
	d.finished[t]++
	r := finishRecord{t, now}
	if expired {
		d.expired = append(d.expired, r)
	} else {
		d.onTime = append(d.onTime, r)
	}
}

func (d *testDriver) forceExit(Ticks) bool { return false }

func (d *testDriver) groupCap(slack Ticks) int {
	if d.stageCost == 0 {
		return math.MaxInt
	}
	return max(1, int(slack/d.stageCost))
}

// TestQueueConservesTasksAtServingShape drives the core on a fake clock
// at the served shape: MaxBatch 64, four workers, and 4096 tasks queued
// at once at mixed stages, in batches and singles, with deadlines spread
// so that they expire mid-queue and mid-stage. The clock the core is
// given is all it knows of the deadlines. Every task must be answered
// exactly once, on time only by its deadline and expired only from it
// on, no group may hold an overdue or mixed-stage task, and the bucket
// sizes must always sum to what is queued.
func TestQueueConservesTasksAtServingShape(t *testing.T) {
	const (
		n        = 4096
		workers  = 4
		maxBatch = 64
		cost     = 10 // ticks per dispatch
	)
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"Greedy-1", NewGreedy(1, flatPriors(), "g1")},
		{"RR", NewRoundRobin()},
		{"FIFO", NewFIFO()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			q := &queue{policy: tc.policy, maxBatch: maxBatch}
			d := &testDriver{}
			var tasks []*liveTask
			for sub := int64(1); len(tasks) < n; sub++ {
				size := 1 + rng.Intn(maxBatch)
				if rng.Intn(4) == 0 {
					size, sub = 1, 0 // a single submission
				}
				for i := 0; i < size && len(tasks) < n; i++ {
					deadline := Ticks(1 + rng.Intn(n*cost/maxBatch))
					tasks = append(tasks, queuedTask(len(tasks), sub, rng.Intn(3), deadline))
				}
			}
			q.push(tasks...)
			queued := n
			checkQueued := func(when string) {
				t.Helper()
				sum := 0
				for _, b := range q.buckets {
					sum += len(b)
				}
				if sum != queued {
					t.Fatalf("%s: buckets hold %d tasks, %d queued", when, sum, queued)
				}
			}
			type flight struct {
				group []*liveTask
				at    Ticks
			}
			var running []flight
			inFlight := make(map[*liveTask]bool)
			for now := Ticks(0); ; {
				for len(running) < workers {
					swept := len(d.finished)
					group, stage := q.pick(now, workers-len(running)-1, nil, d)
					queued -= len(d.finished) - swept
					if group == nil {
						break
					}
					queued -= len(group)
					checkQueued("after a pick")
					if len(group) > maxBatch {
						t.Fatalf("a group of %d", len(group))
					}
					for _, task := range group {
						if task.state.Executed != stage || now >= task.state.Deadline || inFlight[task] {
							t.Fatalf("task %d picked at stage %d: executed %d, due %d at %d, in flight %v",
								task.task.ID, stage, task.state.Executed, task.state.Deadline, now, inFlight[task])
						}
						inFlight[task] = true
					}
					running = append(running, flight{group, now + Ticks(1+rng.Intn(2*cost))})
				}
				if len(running) == 0 {
					break
				}
				// The earliest dispatch ends next.
				first := 0
				for i, f := range running {
					if f.at < running[first].at {
						first = i
					}
				}
				f := running[first]
				running = append(running[:first], running[first+1:]...)
				now = f.at
				res := make([]StageResult, len(f.group))
				for i := range res {
					res[i] = StageResult{Pred: 1, Conf: 0.5}
				}
				for _, task := range f.group {
					delete(inFlight, task)
				}
				surv := q.commit(f.group, res, now, nil, d)
				q.push(surv...)
				queued += len(surv)
				checkQueued("after a commit")
			}
			if queued != 0 {
				t.Fatalf("%d tasks still queued with nothing running", queued)
			}
			for _, task := range tasks {
				if got := d.finished[task]; got != 1 {
					t.Fatalf("task %d answered %d times", task.task.ID, got)
				}
			}
			// A stage that ends at its task's deadline comes first, so a
			// task may be answered on time at its deadline, never after
			// it, and expired at its deadline, never before it.
			for _, r := range d.onTime {
				if r.now > r.t.state.Deadline || r.t.state.Remaining() != 0 {
					t.Fatalf("task %d answered on time at %d, due %d, with %d stages left",
						r.t.task.ID, r.now, r.t.state.Deadline, r.t.state.Remaining())
				}
			}
			for _, r := range d.expired {
				if r.now < r.t.state.Deadline {
					t.Fatalf("task %d answered expired at %d, due %d", r.t.task.ID, r.now, r.t.state.Deadline)
				}
			}
			if len(d.onTime) == 0 || len(d.expired) == 0 {
				t.Fatalf("%d answered on time, %d expired: the run should have both", len(d.onTime), len(d.expired))
			}
			t.Logf("%d on time, %d expired", len(d.onTime), len(d.expired))
		})
	}
}

// TestQueueAnswersByClock holds the core's deadline rule on a fake clock,
// with nothing but the time to go by. A queued task is answered expired
// at the first pick at or after its deadline. A stage that ends after
// the deadline, by one tick, is discarded: the answer is expired and
// carries the stages that ended in time, with their prediction and
// confidence. A last stage that ends on the deadline counts.
func TestQueueAnswersByClock(t *testing.T) {
	const due = 100
	prev := StageResult{Pred: 4, Conf: 0.5} // what the task answers before its next stage
	late := StageResult{Pred: 7, Conf: 0.9} // the next stage's result
	for _, tc := range []struct {
		name    string
		stage   int   // the stage the task runs next, of three
		pickAt  Ticks // when a worker picks
		endAt   Ticks // when the picked stage ends; 0 when nothing is picked
		expired bool
		want    StageResult
	}{
		{"stage ends a tick late", 1, due - 10, due + 1, true, prev},
		{"last stage ends a tick late", 2, due - 10, due + 1, true, prev},
		{"last stage ends on the deadline", 2, due - 10, due, false, late},
		{"queued and due at the pick", 1, due, 0, true, prev},
	} {
		t.Run(tc.name, func(t *testing.T) {
			task := queuedTask(0, 0, tc.stage, due)
			task.state.Pred, task.state.Conf = prev.Pred, prev.Conf
			q := &queue{policy: NewFIFO(), maxBatch: 1}
			d := &testDriver{}
			q.push(task)
			group, _ := q.pick(tc.pickAt, 0, nil, d)
			if tc.endAt == 0 {
				if group != nil {
					t.Fatalf("picked a task due at %d at %d", due, tc.pickAt)
				}
			} else {
				if len(group) != 1 {
					t.Fatalf("picked %d tasks at %d, want the one queued", len(group), tc.pickAt)
				}
				if surv := q.commit(group, []StageResult{late}, tc.endAt, nil, d); len(surv) != 0 {
					t.Fatalf("the task survived a stage ending at %d, due %d", tc.endAt, due)
				}
			}
			answers := d.onTime
			if tc.expired {
				answers = d.expired
			}
			if d.finished[task] != 1 || len(answers) != 1 {
				t.Fatalf("answered %d times, %d on time and %d expired; want once, expired %v",
					d.finished[task], len(d.onTime), len(d.expired), tc.expired)
			}
			executed := tc.stage
			if tc.want == late {
				executed++
			}
			st := task.state
			if st.Executed != executed || st.Pred != tc.want.Pred || st.Conf != tc.want.Conf {
				t.Fatalf("answered with %d stages, pred %d, conf %v; want %d, %d, %v",
					st.Executed, st.Pred, st.Conf, executed, tc.want.Pred, tc.want.Conf)
			}
		})
	}
}
