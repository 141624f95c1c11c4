package sched

// queue is the scheduler core that both drivers run, Live on the wall
// clock and Simulate on a virtual one: the ready tasks, bucketed by the
// stage they run next, the Policy's pick, the group, and the commit of a
// dispatch's results. It takes the time as an argument, never blocks,
// reads no clock and takes no lock: Live calls it under its mu.
type queue struct {
	policy   Policy
	maxBatch int
	// buckets[s] holds the ready tasks whose next stage is s, each in
	// the order it became ready.
	buckets [][]*liveTask
	// states and flat are the last pick's candidates, reused across
	// picks: flat[i] is the task whose state is states[i].
	states []*TaskState
	flat   []*liveTask
}

// driver is what the core asks of the clock it runs under and of its
// admission control.
type driver interface {
	// finish answers a task that leaves the system at now.
	finish(t *liveTask, expired bool, now Ticks)
	// groupCap bounds a dispatch group whose tightest deadline is slack
	// away.
	groupCap(slack Ticks) int
	// forceExit reports whether a task with slack left should answer
	// now rather than run another stage.
	forceExit(slack Ticks) bool
}

// push queues ready tasks, each in the bucket of the stage it runs next.
//
//eugene:noalloc
func (q *queue) push(tasks ...*liveTask) {
	for _, t := range tasks {
		s := t.state.Executed
		for len(q.buckets) <= s {
			q.buckets = append(q.buckets, nil)
		}
		q.buckets[s] = append(q.buckets[s], t)
	}
}

// sweep answers the queued tasks that are due by now as expired, with
// the stages they have run, and lists the rest, stage by stage, as a
// pick's candidates. It is the paper's deadline daemon, run from the
// clock at the one point a queued task's fate is decided: a worker's
// pick.
//
//eugene:noalloc
func (q *queue) sweep(now Ticks, d driver) {
	states, flat := q.states[:0], q.flat[:0]
	for s, b := range q.buckets {
		kept := b[:0]
		for _, t := range b {
			if now >= t.state.Deadline {
				d.finish(t, true, now)
				continue
			}
			kept = append(kept, t)
			states = append(states, &t.state)
			flat = append(flat, t)
		}
		clear(b[len(kept):])
		q.buckets[s] = kept
	}
	q.states, q.flat = states, flat
}

// groupSize is how many of a bucket's n tasks one dispatch takes while
// idle other workers wait for work: an even share for the picker and
// each of them, so that a lone caller's batch still runs on every free
// core, but never under half of maxBatch, since a smaller group streams
// a stage's weights for too few rows, and never over maxBatch. A worker
// whose peers are all busy takes up to maxBatch; a bucket of at most
// maxBatch/2 tasks is never split.
func groupSize(n, idle, maxBatch int) int {
	share := (n + idle) / (1 + idle)
	return min(max(share, maxBatch/2), maxBatch)
}

// pick sweeps the queue, asks the policy for a leader among what is
// left, and coalesces same-stage tasks from the leader's bucket, its
// batch-mates first, into group[:0], at most groupSize (idle other
// workers waiting) and the driver's cap. nil means nothing to run. The
// sweep leaves only tasks due after now, so any of them may join.
//
//eugene:noalloc
func (q *queue) pick(now Ticks, idle int, group []*liveTask, d driver) ([]*liveTask, int) {
	q.sweep(now, d)
	if len(q.flat) == 0 {
		return nil, 0
	}
	leader := q.flat[q.policy.Pick(now, q.states)]
	stage := leader.state.Executed
	bucket := q.buckets[stage]
	// The group is also capped by the slack of the tightest deadline
	// among the candidates: under admission control a full-width batch
	// in front of a nearly-due task would miss that deadline on dispatch
	// time alone.
	minDeadline := leader.state.Deadline
	for _, t := range bucket {
		if t.state.Deadline < minDeadline {
			minDeadline = t.state.Deadline
		}
	}
	capN := min(d.groupCap(minDeadline-now), groupSize(len(bucket), idle, q.maxBatch))
	// The leader's batch-mates come first; other submissions fill in
	// only while the group holds less than half of maxBatch, so singles
	// and small batches still coalesce. A call is answered when its last
	// row is: a group that mixed halves of two batches would tie each
	// call to the other's slower half, and one stalled dispatch would
	// hold two calls back rather than one.
	group = append(group[:0], leader)
	kept := bucket[:0]
	for _, t := range bucket {
		if t == leader {
			continue
		}
		if leader.sub != 0 && t.sub == leader.sub && len(group) < capN {
			group = append(group, t)
			continue
		}
		kept = append(kept, t)
	}
	if leader.sub == 0 || 2*len(group) < q.maxBatch {
		rest := kept
		kept = kept[:0]
		for _, t := range rest {
			if len(group) < capN {
				group = append(group, t)
				continue
			}
			kept = append(kept, t)
		}
	}
	clear(bucket[len(kept):])
	q.buckets[stage] = kept
	return group, stage
}

// commit applies one dispatch's results to its group at now, answers
// the tasks that are done or out of time, and appends the rest to surv
// for the caller to queue again. It reads and writes only the group's
// tasks, which the caller owns, so Live runs it outside mu.
//
//eugene:noalloc
func (q *queue) commit(group []*liveTask, res []StageResult, now Ticks, surv []*liveTask, d driver) []*liveTask {
	for i, t := range group {
		st := &t.state
		if now > st.Deadline {
			// The stage ended past the deadline: its result is discarded
			// and the answer is the last stage that ended in time, as if
			// the paper's daemon had interrupted it between TensorFlow
			// ops.
			d.finish(t, true, now)
			continue
		}
		st.PrevConf = st.Conf
		st.Conf = res[i].Conf
		st.Pred = res[i].Pred
		st.Executed++
		switch {
		case st.Remaining() == 0:
			d.finish(t, false, now)
		case d.forceExit(st.Deadline - now):
			// Degradation ladder: under sustained admission pressure a
			// task whose slack cannot cover another stage answers with
			// the confidence it has, instead of burning a dispatch it
			// cannot finish.
			d.finish(t, false, now)
		default:
			// A task due exactly now is not runnable any more either: at
			// equal times a deadline comes after the stage ends, and the
			// next pick's sweep answers it.
			surv = append(surv, t)
		}
	}
	return surv
}
