package sched

import (
	"fmt"
	"math"
	"testing"
)

// pickBench is the scheduler core held at a fixed depth: one dispatch's
// pick and commit a tick apart, with every task that finishes queued
// again as a fresh task of a new submission. It starts from one burst of
// n rows, one submission, as a large SubmitBatch queues them.
type pickBench struct {
	q     queue
	now   Ticks
	id    int
	group []*liveTask
	surv  []*liveTask
	done  []*liveTask
	res   []StageResult
	// subs are the submissions handed out so far, reused round the ring
	// from next once their tasks have all finished, as SubmitBatch pools
	// them.
	subs []*submission
	next int
}

func newPickBench(policy Policy, n int) *pickBench {
	b := &pickBench{q: queue{policy: policy, maxBatch: DefaultMaxBatch}}
	tasks := make([]*liveTask, n)
	for i := range tasks {
		tasks[i] = &liveTask{}
	}
	b.queueFresh(tasks)
	return b
}

// queueFresh queues tasks as one new submission of three-stage tasks
// arriving now, due long after the run.
func (b *pickBench) queueFresh(tasks []*liveTask) {
	sub := b.freeSub()
	for _, t := range tasks {
		b.id++
		t.task = Task{ID: b.id, NumStages: 3}
		t.state = TaskState{Task: &t.task, Arrival: b.now, Deadline: math.MaxInt64, Pred: -1}
		t.sub = sub
	}
	b.q.push(tasks...)
}

// cycle is one dispatch with no peer idle: a pick, the stage's commit a
// tick later with a confidence that differs by row and stage, and the
// requeue of the survivors and of what finished.
func (b *pickBench) cycle() {
	b.now++
	group, _ := b.q.pick(b.now, 0, b.group, b)
	b.group = group
	res := b.res[:0]
	for _, t := range group {
		res = append(res, StageResult{Pred: 1, Conf: float64((t.task.ID*7919+t.state.Executed*104729)%1000) / 1000})
	}
	b.res = res
	b.now++
	b.surv = b.q.commit(group, res, b.now, b.surv[:0], b)
	b.q.push(b.surv...)
	if len(b.done) > 0 {
		b.queueFresh(b.done)
		b.done = b.done[:0]
	}
}

// freeSub returns the next submission round the ring that has no task
// left, or a new one. Between cycles no task is in flight, so a
// submission whose lists are empty has none.
func (b *pickBench) freeSub() *submission {
	for range b.subs {
		s := b.subs[b.next]
		b.next = (b.next + 1) % len(b.subs)
		if s.mates[0].head == nil && s.mates[1].head == nil && s.mates[2].head == nil {
			return s
		}
	}
	s := &submission{mates: make([]mates, 3)}
	b.subs = append(b.subs, s)
	return s
}

func (b *pickBench) finish(t *liveTask, _ bool, _ Ticks) { b.done = append(b.done, t) }

func (b *pickBench) groupCap(Ticks) int { return math.MaxInt }

func (b *pickBench) forceExit(Ticks) bool { return false }

// pickBenchPolicies are the policies BenchmarkQueuePick and
// TestQueuePickAllocs run the core under.
var pickBenchPolicies = []struct {
	name string
	make func(testing.TB) Policy
}{
	{"Greedy-1", func(t testing.TB) Policy { return NewGreedy(1, syntheticGP(t), "g1") }},
	{"RR", func(testing.TB) Policy { return NewRoundRobin() }},
	{"FIFO", func(testing.TB) Policy { return NewFIFO() }},
}

// warmPickBench builds a pickBench at depth n and runs it until every
// task has been through all three stages about four times, so that the
// buckets, the policy's state and the scratch are at their steady size.
func warmPickBench(policy Policy, n int) *pickBench {
	b := newPickBench(policy, n)
	for range 12*n/DefaultMaxBatch + 16 {
		b.cycle()
	}
	return b
}

// BenchmarkQueuePick times one pick-and-commit cycle of the scheduler
// core with 64 and with 4096 tasks queued.
func BenchmarkQueuePick(b *testing.B) {
	for _, p := range pickBenchPolicies {
		for _, n := range []int{64, 4096} {
			b.Run(fmt.Sprintf("%s/%d", p.name, n), func(b *testing.B) {
				pb := warmPickBench(p.make(b), n)
				b.ReportAllocs()
				for b.Loop() {
					pb.cycle()
				}
			})
		}
	}
}

// TestQueuePickAllocs holds a pick-and-commit cycle with 4096 tasks
// queued to no allocation once the core has warmed up.
func TestQueuePickAllocs(t *testing.T) {
	for _, p := range pickBenchPolicies {
		t.Run(p.name, func(t *testing.T) {
			pb := warmPickBench(p.make(t), 4096)
			if allocs := testing.AllocsPerRun(200, pb.cycle); allocs != 0 {
				t.Fatalf("%.1f allocations per pick-and-commit at 4096 queued, want 0", allocs)
			}
		})
	}
}
