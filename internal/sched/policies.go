package sched

import "fmt"

// Greedy is the RTDeepIoT-k scheduler (paper Section III): it plans a
// timeline of k stage selections by repeatedly choosing the (task,
// stage) with maximum predicted differential utility, executes the
// timeline, then re-plans with fresh confidence observations. Utility of
// a task is the confidence of its current answer (0 while unanswered);
// the differential utility of running its next stage is the predicted
// confidence gain.
type Greedy struct {
	// K is the lookahead: how many selections are planned per round.
	K int
	// Pred supplies confidence forecasts.
	Pred Predictor

	label string
	// timeline is the planned task IDs; entries from next on are not
	// yet consumed. A re-plan overwrites it in place.
	timeline []int
	next     int
	// cands is replan's per-task scratch, reused across plans.
	cands []virt
}

// virt is replan's virtual per-task state, advanced as the plan grows
// so that a k≥2 plan can schedule consecutive stages of the same task
// using predicted confidences.
type virt struct {
	idx    int
	last   int // last (virtually) executed stage index; −1 if none
	prev   float64
	cur    float64
	left   int
	weight float64
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

// Pick implements Policy.
func (g *Greedy) Pick(_ Ticks, tasks []*TaskState) int {
	for {
		// Consume the planned timeline first, skipping entries that
		// became stale (task answered, or picked up already). A plan
		// over a non-empty list holds one of its tasks, so the pass
		// after a replan returns.
		for g.next < len(g.timeline) {
			id := g.timeline[g.next]
			g.next++
			for i, t := range tasks {
				if t.Task.ID == id {
					return i
				}
			}
		}
		g.replan(tasks)
	}
}

// replan rebuilds the (exhausted) timeline.
func (g *Greedy) replan(tasks []*TaskState) {
	cands := g.cands[:0]
	for i, t := range tasks {
		cands = append(cands, virt{
			idx: i, last: t.Executed - 1,
			prev: t.PrevConf, cur: t.Conf,
			left:   t.Remaining(),
			weight: t.Task.EffectiveWeight(),
		})
	}
	g.cands = cands
	g.timeline, g.next = g.timeline[:0], 0
	for n := 0; n < g.K; n++ {
		var best *virt
		var bestGain, bestPred float64
		for c := range cands {
			v := &cands[c]
			if v.left == 0 {
				continue
			}
			next := v.last + 1
			var predicted float64
			if v.last < 0 {
				predicted = g.Pred.Prior(next)
			} else {
				predicted = g.Pred.Predict(v.last, v.prev, v.cur, next)
			}
			gain := (predicted - v.cur) * v.weight
			if best == nil || gain > bestGain {
				best, bestGain, bestPred = v, gain, predicted
			}
		}
		if best == nil {
			break
		}
		g.timeline = append(g.timeline, tasks[best.idx].Task.ID)
		best.prev, best.cur = best.cur, bestPred
		best.last++
		best.left--
	}
}

// RoundRobin is the paper's stage-level round-robin baseline: it cycles
// through tasks in ID order, executing one stage per visit. The cycle
// is kept as the last served ID, not as a position in the candidate
// list, because the scheduler core's list changes order with every
// dispatch.
type RoundRobin struct {
	last int
}

// NewRoundRobin builds the RR baseline.
func NewRoundRobin() *RoundRobin { return &RoundRobin{last: -1} }

// Name implements Policy.
func (r *RoundRobin) Name() string { return "RR" }

// Pick implements Policy: the task with the lowest ID above the last
// one served, or, past the end of the cycle, the lowest ID.
func (r *RoundRobin) Pick(_ Ticks, tasks []*TaskState) int {
	next, first := -1, 0
	for i, t := range tasks {
		id := t.Task.ID
		if id < tasks[first].Task.ID {
			first = i
		}
		if id > r.last && (next < 0 || id < tasks[next].Task.ID) {
			next = i
		}
	}
	if next < 0 {
		next = first
	}
	r.last = tasks[next].Task.ID
	return next
}

// FIFO is the paper's first-come-first-served baseline: tasks run all
// stages to the end in arrival order.
type FIFO struct{}

// NewFIFO builds the FIFO baseline.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Policy.
func (FIFO) Name() string { return "FIFO" }

// Pick implements Policy.
func (FIFO) Pick(_ Ticks, tasks []*TaskState) int {
	best := 0
	for i, t := range tasks {
		if t.Arrival < tasks[best].Arrival ||
			(t.Arrival == tasks[best].Arrival && t.Task.ID < tasks[best].Task.ID) {
			best = i
		}
	}
	return best
}
