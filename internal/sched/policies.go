package sched

import (
	"fmt"
	"math"
)

// Greedy is the RTDeepIoT-k scheduler (paper Section III): it plans a
// timeline of k stage selections by repeatedly choosing the (task,
// stage) with maximum predicted differential utility, executes the
// timeline, then re-plans with fresh confidence observations. Utility of
// a task is the confidence of its current answer (0 while unanswered);
// the differential utility of running its next stage is the predicted
// confidence gain.
//
// A task's gain depends on its own state and weight alone, which do not
// change while it is queued, so it is worked out once, when the task is
// queued, as the task's key: the core's least key is then the greatest
// gain, ties to the earlier task in ready order. A plan's first
// selection is that task; each later one is the best of the core's
// least key among the tasks not planned yet and the planned tasks at
// their next, virtual, stage.
type Greedy struct {
	// K is the lookahead: how many selections are planned per round.
	K int
	// Pred supplies confidence forecasts.
	Pred Predictor

	label string
	// timeline is the planned tasks; entries from next on are not yet
	// consumed. A re-plan overwrites it in place.
	timeline []planned
	next     int
	// plan is replan's scratch: the tasks planned so far, advanced.
	plan []virt
}

// planned is a timeline entry: the task and its ID, which tells it from
// a later task that reuses the record.
type planned struct {
	t  *liveTask
	id int
}

// virt is a task's virtual state in a plan, advanced as the plan grows
// so that a k≥2 plan can schedule consecutive stages of the same task
// using predicted confidences.
type virt struct {
	t      *liveTask
	last   int // last (virtually) executed stage index; −1 if none
	prev   float64
	cur    float64
	left   int
	weight float64
	// gain and pred are those of its next stage.
	gain, pred float64
	// key is the task's key in the queue, which it leaves while planned.
	key rank
}

// NewGreedy builds an RTDeepIoT-k policy.
func NewGreedy(k int, pred Predictor, label string) *Greedy {
	if k < 1 {
		panic(fmt.Sprintf("sched: lookahead k=%d must be ≥1", k))
	}
	return &Greedy{K: k, Pred: pred, label: label}
}

// Name implements Policy.
func (g *Greedy) Name() string { return g.label }

// gain is the predicted confidence gain of running the next stage of a
// task whose last executed stage is last (−1 if none), at confidence cur
// after prev, weighted; pred is the confidence predicted there.
//
//eugene:noalloc
func (g *Greedy) gain(last int, prev, cur, weight float64) (gain, pred float64) {
	if last < 0 {
		pred = g.Pred.Prior(last + 1)
	} else {
		pred = g.Pred.Predict(last, prev, cur, last+1)
	}
	return (pred - cur) * weight, pred
}

// state is t's state as a plan starts from it.
//
//eugene:noalloc
func (g *Greedy) state(t *liveTask) virt {
	st := &t.state
	v := virt{t: t, last: st.Executed - 1, prev: st.PrevConf, cur: st.Conf,
		left: st.Remaining(), weight: st.Task.EffectiveWeight()}
	v.gain, v.pred = g.gain(v.last, v.prev, v.cur, v.weight)
	return v
}

// key is the task's gain, greatest first.
//
//eugene:noalloc
func (g *Greedy) key(t *liveTask) rank {
	st := &t.state
	gain, _ := g.gain(st.Executed-1, st.PrevConf, st.Conf, st.Task.EffectiveWeight())
	return rank{hi: floatRank(-gain)}
}

// floatRank maps f to an int64 in the same order, −0 to the same as +0.
func floatRank(f float64) int64 {
	if f == 0 {
		return 0
	}
	b := int64(math.Float64bits(f))
	if b < 0 {
		b ^= math.MaxInt64
	}
	return b
}

// leader consumes the planned timeline, skipping entries whose task is
// no longer queued (answered, or picked up already), and re-plans when
// it runs out. A plan over a non-empty queue holds one of its tasks, so
// the pass after a replan returns.
//
//eugene:noalloc
func (g *Greedy) leader(q *queue, _ Ticks) *liveTask {
	for {
		for g.next < len(g.timeline) {
			p := g.timeline[g.next]
			g.next++
			if q.queued(p.t) && p.t.state.Task.ID == p.id {
				return p.t
			}
		}
		g.replan(q)
	}
}

// replan rebuilds the (exhausted) timeline. A planned task's key is
// absent from the core until the plan is complete.
//
//eugene:noalloc
func (g *Greedy) replan(q *queue) {
	g.timeline, g.next = g.timeline[:0], 0
	plan := g.plan[:0]
	for n := 0; n < g.K; n++ {
		top := len(plan)
		if t := q.best(); t != nil {
			plan = append(plan, g.state(t))
		}
		best := -1
		for i := range plan {
			v := &plan[i]
			if v.left > 0 && (best < 0 || v.gain > plan[best].gain ||
				v.gain == plan[best].gain && readyBefore(v.t, plan[best].t)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if best != top {
			plan = plan[:top]
		} else if g.K > 1 {
			plan[best].key = q.key(plan[best].t)
			q.rekey(plan[best].t, absent)
		}
		v := &plan[best]
		g.timeline = append(g.timeline, planned{v.t, v.t.state.Task.ID})
		v.prev, v.cur = v.cur, v.pred
		v.last++
		v.left--
		if v.left > 0 && n+1 < g.K {
			v.gain, v.pred = g.gain(v.last, v.prev, v.cur, v.weight)
		}
	}
	if g.K > 1 {
		for _, v := range plan {
			q.rekey(v.t, v.key)
		}
	}
	clear(plan)
	g.plan = plan[:0]
}

// readyBefore is ready order: stage by stage, then by place in the
// stage's bucket.
func readyBefore(a, b *liveTask) bool {
	return a.state.Executed < b.state.Executed || a.state.Executed == b.state.Executed && a.pos < b.pos
}

// RoundRobin is the paper's stage-level round-robin baseline: it cycles
// through tasks in ID order, executing one stage per visit. The cycle
// is kept as the last served ID, not as a position in the queue, whose
// order changes with every dispatch. A task's key is its ID in the
// round that serves it: this one if its ID is above the last served,
// else the next.
type RoundRobin struct {
	round, last int64
}

// NewRoundRobin builds the RR baseline.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Name implements Policy.
func (r *RoundRobin) Name() string { return "RR" }

//eugene:noalloc
func (r *RoundRobin) key(t *liveTask) rank {
	id := int64(t.state.Task.ID)
	if id > r.last {
		return rank{r.round, id}
	}
	return rank{r.round + 1, id}
}

// leader is the task with the lowest ID above the last one served, or,
// past the end of the cycle, the lowest ID.
//
//eugene:noalloc
func (r *RoundRobin) leader(q *queue, _ Ticks) *liveTask {
	t := q.best()
	k := q.key(t)
	r.round, r.last = k.hi, k.lo
	return t
}

// FIFO is the paper's first-come-first-served baseline: tasks run all
// stages to the end in arrival order. A task's key is its arrival, ties
// broken by ID.
type FIFO struct{}

// NewFIFO builds the FIFO baseline.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (*FIFO) Name() string { return "FIFO" }

//eugene:noalloc
func (*FIFO) key(t *liveTask) rank { return rank{t.state.Arrival, int64(t.state.Task.ID)} }

//eugene:noalloc
func (*FIFO) leader(q *queue, _ Ticks) *liveTask { return q.best() }
