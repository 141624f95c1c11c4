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

// finishRecord is one answer: the task, the tick it was given and
// whether the daemon had flagged the task by then.
type finishRecord struct {
	t       *liveTask
	now     Ticks
	flagged bool
}

func (d *testDriver) finish(t *liveTask, expired bool, now Ticks) {
	if d.finished == nil {
		d.finished = make(map[*liveTask]int)
	}
	d.finished[t]++
	r := finishRecord{t, now, t.dead.Load()}
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
// so that they expire mid-queue and mid-stage. A daemon flags every task
// whose deadline has come before each step, as Live's does, or, lagging
// as a late timer would, only every lag ticks. Every task must be
// answered exactly once, none past its deadline or flagged as on time,
// no group may hold a flagged, overdue or mixed-stage task, and the
// bucket sizes must always sum to what is queued.
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
		lag    Ticks // the daemon flags only at multiples of lag; 0 is every step
	}{
		{"Greedy-1", NewGreedy(1, flatPriors(), "g1"), 0},
		{"RR", NewRoundRobin(), 0},
		{"FIFO", NewFIFO(), 0},
		{"FIFO-lagging", NewFIFO(), 3 * cost},
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
			// The daemon flags in task order, which is not queue order.
			flag := func(now Ticks) {
				if tc.lag > 0 {
					now -= now % tc.lag
				}
				for _, task := range tasks {
					if task.state.Deadline <= now {
						task.dead.Store(true)
					}
				}
			}
			type flight struct {
				group []*liveTask
				at    Ticks
			}
			var running []flight
			inFlight := make(map[*liveTask]bool)
			for now := Ticks(0); ; {
				flag(now)
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
						if task.state.Executed != stage || task.dead.Load() || now >= task.state.Deadline || inFlight[task] {
							t.Fatalf("task %d picked at stage %d: executed %d, flagged %v, due %d at %d, in flight %v",
								task.task.ID, stage, task.state.Executed, task.dead.Load(), task.state.Deadline, now, inFlight[task])
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
				flag(now)
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
			// A stage that ends at its task's deadline comes first, so an
			// unflagged task may be answered on time at its deadline, never
			// after it.
			for _, r := range d.onTime {
				if r.flagged || r.now > r.t.state.Deadline || r.t.state.Remaining() != 0 {
					t.Fatalf("task %d answered on time at %d, due %d, flagged %v, with %d stages left",
						r.t.task.ID, r.now, r.t.state.Deadline, r.flagged, r.t.state.Remaining())
				}
			}
			if len(d.onTime) == 0 || len(d.expired) == 0 {
				t.Fatalf("%d answered on time, %d expired: the run should have both", len(d.onTime), len(d.expired))
			}
			t.Logf("%d on time, %d expired", len(d.onTime), len(d.expired))
		})
	}
}
