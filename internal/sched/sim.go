package sched

import (
	"fmt"
	"slices"
)

// SimConfig describes one closed-loop simulation: Concurrency tasks are
// kept in the system (a finished or expired task is immediately replaced
// until TotalTasks have been issued), Workers execute one stage at a
// time, each stage costs StageCost ticks, and every task must finish
// within Deadline ticks of its arrival (the paper's maximum latency
// constraint, enforced by the scheduler core from the clock; a stage
// still in flight at the deadline is interrupted).
type SimConfig struct {
	Workers     int
	Concurrency int
	TotalTasks  int
	StageCost   Ticks
	Deadline    Ticks
}

// Validate reports an error for degenerate configurations.
func (c SimConfig) Validate() error {
	switch {
	case c.Workers < 1:
		return fmt.Errorf("sched: workers %d must be ≥1", c.Workers)
	case c.Concurrency < 1:
		return fmt.Errorf("sched: concurrency %d must be ≥1", c.Concurrency)
	case c.TotalTasks < 1:
		return fmt.Errorf("sched: total tasks %d must be ≥1", c.TotalTasks)
	case c.StageCost < 1:
		return fmt.Errorf("sched: stage cost %d must be ≥1", c.StageCost)
	case c.Deadline < c.StageCost:
		return fmt.Errorf("sched: deadline %d shorter than one stage (%d)", c.Deadline, c.StageCost)
	}
	return nil
}

// sim is Simulate's virtual-clock driver of the scheduler core.
type sim struct {
	cfg  SimConfig
	next func(id int) *Task
	q    queue
	// running holds the stages in flight, each as its task and the tick
	// it ends, in the order they were dispatched, which is the order they
	// end in: every stage costs StageCost.
	running []event
	// deadlines holds every issued task's deadline, answered tasks' too:
	// an event whose task has left passes without effect.
	deadlines deadlineHeap
	// arriving holds the tasks issued this tick, admitted after the
	// tick's stage ends and deadlines.
	arriving []*liveTask
	issued   int
	metrics  Metrics
}

// Simulate runs the closed-loop experiment under the given policy and
// returns per-task outcomes; next supplies the task issued with each ID.
// It drives Live's scheduler core on a virtual clock, deterministically:
// Workers slots of one task (MaxBatch 1), StageCost ticks per dispatch,
// Task.Run for ExecStageBatch. Within a tick, stages end first (one
// ending at its task's deadline counts), deadlines pass next, and the
// tick's arrivals are admitted last, each followed by a dispatch.
func Simulate(cfg SimConfig, policy Policy, next func(id int) *Task) (*Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil || next == nil {
		return nil, fmt.Errorf("sched: nil policy or source")
	}
	s := &sim{cfg: cfg, next: next, q: queue{policy: policy, maxBatch: 1}}
	for i := 0; i < cfg.Concurrency; i++ {
		s.issue(0)
	}
	for now := Ticks(0); ; {
		for len(s.running) > 0 && s.running[0].at == now {
			t := s.running[0].t
			s.running = s.running[1:]
			res := []StageResult{t.state.Task.Run(t.state.Executed)}
			s.q.push(s.q.commit([]*liveTask{t}, res, now, nil, s)...)
			s.dispatch(now)
		}
		for len(s.deadlines) > 0 && s.deadlines[0].at == now {
			s.expire(s.deadlines.popMin().t, now)
			s.dispatch(now)
		}
		for i := 0; i < len(s.arriving); i++ {
			t := s.arriving[i]
			s.q.push(t)
			s.deadlines.push(event{t: t, at: t.state.Deadline})
			s.dispatch(now)
		}
		s.arriving = s.arriving[:0]
		switch {
		case len(s.running) > 0 && (len(s.deadlines) == 0 || s.running[0].at < s.deadlines[0].at):
			now = s.running[0].at
		case len(s.deadlines) > 0:
			now = s.deadlines[0].at
		default:
			return &s.metrics, nil
		}
	}
}

// issue draws the next task, unless TotalTasks have been issued, to
// arrive at now. Its ID orders equal deadlines by arrival.
func (s *sim) issue(now Ticks) {
	if s.issued >= s.cfg.TotalTasks {
		return
	}
	task := s.next(s.issued)
	if task.NumStages < 1 || task.Run == nil {
		panic(fmt.Sprintf("sched: source produced invalid task %d", s.issued))
	}
	task.ID = s.issued
	s.issued++
	rel := s.cfg.Deadline
	if task.RelDeadline > 0 {
		rel = task.RelDeadline
	}
	s.arriving = append(s.arriving, &liveTask{
		state: TaskState{Task: task, Arrival: now, Deadline: now + rel, Pred: -1},
	})
}

// dispatch fills the free worker slots from the core.
func (s *sim) dispatch(now Ticks) {
	for len(s.running) < s.cfg.Workers {
		group, _ := s.q.pick(now, s.cfg.Workers-len(s.running)-1, nil, s)
		if group == nil {
			return
		}
		s.running = append(s.running, event{t: group[0], at: now + s.cfg.StageCost})
	}
}

// expire is the paper's deadline daemon at t's deadline. A queued task
// is answered now by the core's sweep, with any other task due by now,
// so that the closed loop issues its replacement now, not at the next
// pick. A task already answered is in neither place, and its deadline
// passes without effect.
func (s *sim) expire(t *liveTask, now Ticks) {
	for i, f := range s.running {
		if f.t == t {
			// The one place the two drivers differ: here the deadline
			// interrupts the stage and its worker is free at once, as in
			// the paper. Live's worker holds its core until the stage
			// ends, a property of the wall clock, and the core's commit
			// discards the late result then.
			s.running = slices.Delete(s.running, i, i+1)
			s.finish(t, true, now)
			return
		}
	}
	s.q.sweep(now, s)
}

// finish records the task's outcome and, closing the loop, issues its
// replacement.
func (s *sim) finish(t *liveTask, expired bool, now Ticks) {
	st := &t.state
	s.metrics.Outcomes = append(s.metrics.Outcomes, TaskOutcome{
		ID:       st.Task.ID,
		Class:    st.Task.Class,
		Stages:   st.Executed,
		Correct:  st.Executed > 0 && st.Pred == st.Task.Label,
		Answered: st.Executed > 0,
		Expired:  expired,
		Latency:  now - st.Arrival,
	})
	s.issue(now)
}

// groupCap is one task per dispatch.
func (s *sim) groupCap(Ticks) int { return 1 }

// forceExit is never: the simulation has no admission control.
func (s *sim) forceExit(Ticks) bool { return false }

// event is a task at a tick: the end of the stage it has in flight, or
// its deadline.
type event struct {
	t  *liveTask
	at Ticks
}

// deadlineHeap orders Simulate's deadline events by tick, equal ticks
// by task ID, which is the order the tasks arrived in. Hand-rolled sift
// functions instead of container/heap keep the events unboxed; with a
// uniform relative deadline they arrive in order and sift-up is O(1).
type deadlineHeap []event

func (a event) before(b event) bool {
	return a.at < b.at || a.at == b.at && a.t.state.Task.ID < b.t.state.Task.ID
}

func (h *deadlineHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *deadlineHeap) popMin() event {
	s := *h
	n := len(s) - 1
	e := s[0]
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(s[c]) {
			c++
		}
		if !s[c].before(s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return e
}
