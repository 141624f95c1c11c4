package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// queuedTask builds a core task: the id-th to arrive (at tick id), of
// submission sub (nil for a single), ready for the given stage of three,
// due at deadline.
func queuedTask(id int, sub *submission, stage int, deadline Ticks) *liveTask {
	t := &liveTask{sub: sub}
	t.task = Task{ID: id, NumStages: 3}
	t.state = TaskState{Task: &t.task, Arrival: Ticks(id), Deadline: deadline, Executed: stage, Pred: -1}
	return t
}

// submissions hands out a submission per number, as SubmitBatch makes one
// per call; number 0 is a single submission.
type submissions map[int64]*submission

func (s submissions) of(n int64) *submission {
	if n == 0 {
		return nil
	}
	if s[n] == nil {
		s[n] = &submission{mates: make([]mates, 3)}
	}
	return s[n]
}

// testDriver is a driver on a fake clock: it logs every answer, caps
// groups as admission would at stageCost ticks a stage (no cap when
// zero), and forces a task out when it has less than exitBelow ticks of
// slack left.
type testDriver struct {
	stageCost, exitBelow Ticks
	answers              []answer
}

// answer is one finish: the task, whether it expired, and the tick.
type answer struct {
	t       *liveTask
	expired bool
	now     Ticks
}

func (a answer) String() string {
	how := "on time"
	if a.expired {
		how = "expired"
	}
	return fmt.Sprintf("task %d %s at %d", a.t.task.ID, how, a.now)
}

func (d *testDriver) finish(t *liveTask, expired bool, now Ticks) {
	d.answers = append(d.answers, answer{t, expired, now})
}

func (d *testDriver) forceExit(slack Ticks) bool { return slack < d.exitBelow }

func (d *testDriver) groupCap(slack Ticks) int {
	if d.stageCost == 0 {
		return math.MaxInt
	}
	return max(1, int(slack/d.stageCost))
}

// Where a task is, in the oracle's model.
const (
	isQueued = iota
	isInFlight
	isAnswered
)

// taskModel is the oracle's record of one task.
type taskModel struct {
	where          int
	executed, pred int
	conf, prevConf float64
	deadline       Ticks
	expired        bool // how it was answered
}

// coreOracle drives the scheduler core on a fake clock and, after every
// operation, checks it exactly against a plain model of each task. A
// pick must answer expired exactly the queued tasks due by now, in
// queue order, leaving the rest as the candidates, stage by stage in
// the order they became ready; lead with the task the policy's
// reference model picks from them (FIFO's and RR's by their rules,
// Greedy's by a copy of its plan over a candidate list); and take the
// group the rule in queue.pick describes, written here from its
// statement rather than its code. A commit must discard a stage that
// ended past its task's deadline, apply any other, answer the tasks
// that are done or forced out and hand back the rest. Nothing else may
// be answered, and every task's state, every bucket and its index must
// match the model.
type coreOracle struct {
	t        testing.TB
	q        *queue
	d        *testDriver
	policy   Policy // the policy under test; q runs it through checkedPolicy
	maxBatch int
	now      Ticks
	tasks    []*liveTask
	model    map[*liveTask]*taskModel
	// ready is the model's queue: the queued tasks by the stage they run
	// next, each in the order it became ready.
	ready [][]*liveTask
	// flights are the groups in flight, in the order they were picked.
	flights [][]*liveTask
	// cands are the tasks the pick under way must offer the policy, and
	// leader the index it chose (−1 until it is asked).
	cands  []*liveTask
	leader int
	// rrLast is the last leader's ID, which a round-robin policy's next
	// leader follows.
	rrLast int
	// greedy is the reference model of a Greedy policy under test; nil
	// for the others.
	greedy *refGreedy
}

func newCoreOracle(t testing.TB, policy Policy, maxBatch int, d *testDriver) *coreOracle {
	o := &coreOracle{t: t, d: d, policy: policy, maxBatch: maxBatch,
		model: make(map[*liveTask]*taskModel), rrLast: -1}
	o.q = &queue{policy: checkedPolicy{policy, o}, maxBatch: maxBatch}
	if g, ok := policy.(*Greedy); ok {
		o.greedy = &refGreedy{k: g.K, pred: g.Pred}
	}
	return o
}

// refGreedy is the reference model of Greedy's pick, written over the
// candidate list in the order the core lists it: the next task of the
// planned timeline that is still listed, and, once the timeline runs out,
// a new plan of k selections, each the candidate with the greatest
// weighted predicted confidence gain (the first such in list order),
// advanced virtually so that a later selection may take its next stage.
type refGreedy struct {
	k        int
	pred     Predictor
	timeline []int // planned task IDs
	next     int   // the first entry not yet consumed
}

func (g *refGreedy) pick(tasks []*TaskState) int {
	for {
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

func (g *refGreedy) replan(tasks []*TaskState) {
	type virt struct {
		last, left        int
		prev, cur, weight float64
	}
	cands := make([]virt, len(tasks))
	for i, t := range tasks {
		cands[i] = virt{t.Executed - 1, t.Remaining(), t.PrevConf, t.Conf, t.Task.EffectiveWeight()}
	}
	g.timeline, g.next = g.timeline[:0], 0
	for range g.k {
		best := -1
		var bestGain, bestPred float64
		for i, v := range cands {
			if v.left == 0 {
				continue
			}
			predicted := g.pred.Prior(v.last + 1)
			if v.last >= 0 {
				predicted = g.pred.Predict(v.last, v.prev, v.cur, v.last+1)
			}
			if gain := (predicted - v.cur) * v.weight; best < 0 || gain > bestGain {
				best, bestGain, bestPred = i, gain, predicted
			}
		}
		if best < 0 {
			break
		}
		g.timeline = append(g.timeline, tasks[best].Task.ID)
		v := &cands[best]
		v.prev, v.cur = v.cur, bestPred
		v.last++
		v.left--
	}
}

// checkedPolicy is the policy under test as the core sees it: it checks
// that the core asks for one leader a pick, with tasks queued, and that
// the leader is the one the reference model picks from the candidates.
type checkedPolicy struct {
	Policy
	o *coreOracle
}

func (p checkedPolicy) leader(q *queue, now Ticks) *liveTask {
	o := p.o
	o.t.Helper()
	if o.leader >= 0 || now != o.now {
		o.t.Fatalf("leader asked at %d in a pick at %d that had asked already: %v", now, o.now, o.leader >= 0)
	}
	if len(o.cands) == 0 {
		o.t.Fatalf("leader asked at %d with nothing queued", now)
	}
	leader := p.Policy.leader(q, now)
	i := slices.Index(o.cands, leader)
	if i < 0 {
		o.t.Fatalf("%s led with task %d at %d, which is not queued", o.policy.Name(), leader.state.Task.ID, now)
	}
	// The candidates, stage by stage in the order they became ready, as
	// the reference models pick from them: FIFO's leader is the oldest
	// arrival, ties broken by ID; RR's the lowest ID above the last one
	// served, wrapping round; Greedy's the reference plan's.
	tasks := make([]*TaskState, len(o.cands))
	for j, t := range o.cands {
		tasks[j] = &t.state
	}
	var rank func(*TaskState) [2]Ticks
	var want *TaskState
	switch o.policy.(type) {
	case *FIFO:
		rank = func(st *TaskState) [2]Ticks { return [2]Ticks{st.Arrival, Ticks(st.Task.ID)} }
	case *RoundRobin:
		rank = func(st *TaskState) [2]Ticks {
			var wrapped Ticks
			if st.Task.ID <= o.rrLast {
				wrapped = 1
			}
			return [2]Ticks{wrapped, Ticks(st.Task.ID)}
		}
	case *Greedy:
		want = tasks[o.greedy.pick(tasks)]
	}
	if rank != nil {
		want = slices.MinFunc(tasks, func(a, b *TaskState) int {
			ra, rb := rank(a), rank(b)
			return cmp.Or(cmp.Compare(ra[0], rb[0]), cmp.Compare(ra[1], rb[1]))
		})
	}
	if want != tasks[i] {
		o.t.Fatalf("%s picked task %d at %d, want task %d", o.policy.Name(), tasks[i].Task.ID, now, want.Task.ID)
	}
	o.leader, o.rrLast = i, leader.state.Task.ID
	return leader
}

// push queues new tasks, as one submission.
func (o *coreOracle) push(tasks ...*liveTask) {
	o.t.Helper()
	for _, t := range tasks {
		st := &t.state
		o.model[t] = &taskModel{executed: st.Executed, pred: st.Pred, conf: st.Conf, prevConf: st.PrevConf, deadline: st.Deadline}
		o.queue(t)
	}
	o.tasks = append(o.tasks, tasks...)
	o.q.push(tasks...)
	o.check()
}

// queue puts a task in the model's bucket for the stage it runs next.
func (o *coreOracle) queue(t *liveTask) {
	m := o.model[t]
	m.where = isQueued
	for len(o.ready) <= m.executed {
		o.ready = append(o.ready, nil)
	}
	o.ready[m.executed] = append(o.ready[m.executed], t)
}

// pick has a worker pick at the current tick with idle peers waiting,
// and reports whether it got a group, which is then in flight.
func (o *coreOracle) pick(idle int) bool {
	o.t.Helper()
	var swept []answer
	o.cands = o.cands[:0]
	for s, b := range o.ready {
		o.ready[s] = slices.DeleteFunc(b, func(t *liveTask) bool {
			if o.now >= o.model[t].deadline {
				swept = append(swept, answer{t, true, o.now})
				return true
			}
			o.cands = append(o.cands, t)
			return false
		})
	}
	o.leader = -1
	group, stage := o.q.pick(o.now, idle, nil, o.d)
	o.answered(swept, "the sweep")
	if len(o.cands) == 0 {
		if group != nil || o.leader >= 0 {
			o.t.Fatalf("a pick at %d with nothing queued returned %d tasks, asked the policy %v", o.now, len(group), o.leader >= 0)
		}
		o.check()
		return false
	}
	if o.leader < 0 {
		o.t.Fatalf("a pick at %d with %d queued did not ask the policy", o.now, len(o.cands))
	}
	leader := o.cands[o.leader]
	if want := o.model[leader].executed; stage != want {
		o.t.Fatalf("a pick at %d returned stage %d for a leader at stage %d", o.now, stage, want)
	}
	// The leader, its batch-mates, then, after a single or a group under
	// half of maxBatch, the bucket's other tasks; all in bucket order and
	// capped by the tightest slack in the bucket and the idle share.
	bucket := o.ready[stage]
	tightest := Ticks(math.MaxInt64)
	want := []*liveTask{leader}
	var others []*liveTask
	for _, t := range bucket {
		tightest = min(tightest, o.model[t].deadline)
		switch {
		case t == leader:
		case leader.sub != nil && t.sub == leader.sub:
			want = append(want, t)
		default:
			others = append(others, t)
		}
	}
	if leader.sub == nil || 2*len(want) < o.maxBatch {
		want = append(want, others...)
	}
	want = want[:min(len(want), o.d.groupCap(tightest-o.now), groupSize(len(bucket), idle, o.maxBatch))]
	if !slices.Equal(group, want) {
		o.t.Fatalf("a pick at %d, %d idle, took %v, want %v", o.now, idle, ids(group), ids(want))
	}
	for _, t := range group {
		o.model[t].where = isInFlight
	}
	o.ready[stage] = slices.DeleteFunc(bucket, func(t *liveTask) bool { return o.model[t].where == isInFlight })
	o.flights = append(o.flights, group)
	o.check()
	return true
}

// commit ends flight i's stage at tick at, no earlier than the current
// one, with one result a row, and queues the survivors again.
func (o *coreOracle) commit(i int, at Ticks, res []StageResult) {
	o.t.Helper()
	o.now = at
	group := o.flights[i]
	o.flights = slices.Delete(o.flights, i, i+1)
	var answers []answer
	var surv []*liveTask
	for j, t := range group {
		m := o.model[t]
		if o.now > m.deadline {
			answers = append(answers, answer{t, true, o.now})
			continue
		}
		m.prevConf, m.conf, m.pred = m.conf, res[j].Conf, res[j].Pred
		m.executed++
		if m.executed == t.task.NumStages || o.d.forceExit(m.deadline-o.now) {
			answers = append(answers, answer{t, false, o.now})
		} else {
			surv = append(surv, t)
		}
	}
	got := o.q.commit(group, res, o.now, nil, o.d)
	o.answered(answers, "a commit")
	if !slices.Equal(got, surv) {
		o.t.Fatalf("a commit at %d handed back %v, want %v", o.now, ids(got), ids(surv))
	}
	for _, t := range surv {
		o.queue(t)
	}
	o.q.push(surv...)
	o.check()
}

// answered checks that the driver was given exactly these answers since
// the last operation, and records them.
func (o *coreOracle) answered(want []answer, by string) {
	o.t.Helper()
	if !slices.Equal(o.d.answers, want) {
		o.t.Fatalf("%s at %d answered %v, want %v", by, o.now, o.d.answers, want)
	}
	for _, a := range want {
		m := o.model[a.t]
		m.where, m.expired = isAnswered, a.expired
	}
	o.d.answers = o.d.answers[:0]
}

// check holds every task's state and every bucket to the model.
func (o *coreOracle) check() {
	o.t.Helper()
	for _, t := range o.tasks {
		m, st := o.model[t], &t.state
		if st.Executed != m.executed || st.Pred != m.pred || st.Conf != m.conf || st.PrevConf != m.prevConf || st.Deadline != m.deadline {
			o.t.Fatalf("at %d task %d has executed %d, pred %d, conf %v (prev %v), due %d; want %d, %d, %v (%v), %d",
				o.now, t.task.ID, st.Executed, st.Pred, st.Conf, st.PrevConf, st.Deadline,
				m.executed, m.pred, m.conf, m.prevConf, m.deadline)
		}
	}
	var subs []*submission
	for _, t := range o.tasks {
		if t.sub != nil && !slices.Contains(subs, t.sub) {
			subs = append(subs, t.sub)
		}
	}
	queued := 0
	for s := range max(len(o.q.buckets), len(o.ready)) {
		var want []*liveTask
		if s < len(o.ready) {
			want = o.ready[s]
		}
		queued += len(want)
		got := bucketTasks(o.q, s)
		if !slices.Equal(got, want) {
			o.t.Fatalf("at %d bucket %d holds %v, want %v", o.now, s, ids(got), ids(want))
		}
		if s >= len(o.q.buckets) {
			continue
		}
		// The bucket's indexes hold the same tasks: its tree, whose root
		// keeps the earliest deadline, and each submission's list of its
		// tasks here, in the order they became ready.
		b := &o.q.buckets[s]
		tightest := Ticks(math.MaxInt64)
		for _, t := range want {
			tightest = min(tightest, t.state.Deadline)
		}
		due := Ticks(math.MaxInt64)
		if b.n > 0 { // an empty bucket's tree is not read
			due = b.nodes[1].due
		}
		if b.n != len(want) || due != tightest {
			o.t.Fatalf("at %d bucket %d counts %d tasks due by %d, want %d due by %d", o.now, s, b.n, due, len(want), tightest)
		}
		for _, sub := range subs {
			var got []*liveTask
			for t := sub.mates[s].head; t != nil; t = t.mnext {
				got = append(got, t)
			}
			mates := slices.DeleteFunc(slices.Clone(want), func(t *liveTask) bool { return t.sub != sub })
			if !slices.Equal(got, mates) {
				o.t.Fatalf("at %d bucket %d lists %v for a submission, want %v", o.now, s, ids(got), ids(mates))
			}
		}
	}
	if o.q.n != queued {
		o.t.Fatalf("at %d the core counts %d tasks queued, want %d", o.now, o.q.n, queued)
	}
	for _, t := range o.tasks {
		if isQueued := o.model[t].where == isQueued; isQueued != o.q.queued(t) {
			o.t.Fatalf("at %d task %d is queued %v in the core, %v in the model", o.now, t.task.ID, !isQueued, isQueued)
		}
	}
}

// bucketTasks lists the core's bucket s in ready order.
func bucketTasks(q *queue, s int) []*liveTask {
	var tasks []*liveTask
	if s < len(q.buckets) {
		b := &q.buckets[s]
		for _, t := range b.tasks[b.first:b.end] {
			if t != nil {
				tasks = append(tasks, t)
			}
		}
	}
	return tasks
}

// drain runs the core dry, committing the oldest group in flight a tick
// on or else picking with no peer idle, and then checks that every task
// was answered.
func (o *coreOracle) drain() {
	o.t.Helper()
	for {
		if len(o.flights) > 0 {
			o.commit(0, o.now+1, make([]StageResult, len(o.flights[0])))
		} else if !o.pick(0) {
			break
		}
	}
	for _, t := range o.tasks {
		if o.model[t].where != isAnswered {
			o.t.Fatalf("task %d left unanswered with nothing queued or in flight", t.task.ID)
		}
	}
}

func ids(tasks []*liveTask) []int {
	out := make([]int, len(tasks))
	for i, t := range tasks {
		out[i] = t.task.ID
	}
	return out
}

// TestQueueConservesTasksAtServingShape runs the core under the oracle
// at the served shape: MaxBatch 64, four workers, and 4096 tasks queued
// at once at mixed stages, in batches and singles, with deadlines spread
// so that they expire mid-queue and mid-stage. The clock the core is
// given is all it knows of the deadlines.
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
			o := newCoreOracle(t, tc.policy, maxBatch, &testDriver{})
			var tasks []*liveTask
			subs := submissions{}
			for next := int64(1); len(tasks) < n; {
				size, sub := 1+rng.Intn(maxBatch), next
				if rng.Intn(4) == 0 {
					size, sub = 1, 0 // a single submission
				} else {
					next++
				}
				for i := 0; i < size && len(tasks) < n; i++ {
					deadline := Ticks(1 + rng.Intn(n*cost/maxBatch))
					tasks = append(tasks, queuedTask(len(tasks), subs.of(sub), rng.Intn(3), deadline))
				}
			}
			o.push(tasks...)
			var ends []Ticks // when each group in flight ends
			for {
				for len(o.flights) < workers && o.pick(workers-len(o.flights)-1) {
					ends = append(ends, o.now+Ticks(1+rng.Intn(2*cost)))
				}
				if len(o.flights) == 0 {
					break
				}
				// The earliest dispatch ends next.
				first := 0
				for i, at := range ends {
					if at < ends[first] {
						first = i
					}
				}
				res := make([]StageResult, len(o.flights[first]))
				for i := range res {
					res[i] = StageResult{Pred: 1, Conf: 0.5}
				}
				o.commit(first, ends[first], res)
				ends = slices.Delete(ends, first, first+1)
			}
			o.drain()
			expired := 0
			for _, m := range o.model {
				if m.expired {
					expired++
				}
			}
			t.Logf("%d on time, %d expired", n-expired, expired)
		})
	}
}

// The operations of a FuzzQueue script, each an opcode byte followed by
// its arguments.
const (
	opSingle  = iota // the stage spec (stageSpec), ticks to the deadline
	opBatch          // rows − 1, the stage spec, then each row's ticks to its deadline
	opPick           // idle peers
	opCommit         // the flight, ticks to the stage's end, then each row's result (scriptResult)
	opAdvance        // ticks
	numOps
)

// scriptPolicies are the policies a script's first byte chooses from:
// Greedy over the DC predictor, whose flat priors make fresh tasks tie,
// and over a GP predictor, whose gains differ by confidence.
var scriptPolicies = []func(testing.TB) Policy{
	func(testing.TB) Policy { return NewGreedy(1, flatPriors(), "g1") },
	func(testing.TB) Policy { return NewGreedy(2, flatPriors(), "g2") },
	func(testing.TB) Policy { return NewRoundRobin() },
	func(testing.TB) Policy { return NewFIFO() },
	func(t testing.TB) Policy { return NewGreedy(1, syntheticGP(t), "gp1") },
	func(t testing.TB) Policy { return NewGreedy(2, syntheticGP(t), "gp2") },
}

// maxScriptTasks bounds a script's pushes, and so the oracle's work per
// operation.
const maxScriptTasks = 256

// stageSpec encodes a task of stages stages that runs stage next.
func stageSpec(stage, stages int) byte { return byte(3*stage + stages - 1) }

// scriptResult decodes a row's stage result.
func scriptResult(b byte) StageResult { return StageResult{Pred: int(b % 8), Conf: float64(b) / 255} }

// runScript runs a FuzzQueue script under the oracle and drains the
// core. A script is four header bytes (the policy, maxBatch − 1, the
// test driver's stage cost and its force-exit slack), then operations;
// one that ends mid-operation reads zeros. A task pushed at stage s > 0
// answers pred s at confidence s/4 before its next stage.
func runScript(t testing.TB, script []byte) *coreOracle {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	policy := scriptPolicies[int(next())%len(scriptPolicies)](t)
	maxBatch := 1 + int(next()%64)
	o := newCoreOracle(t, policy, maxBatch, &testDriver{stageCost: Ticks(next() % 16), exitBelow: Ticks(next() % 32)})
	subs := submissions{}
	for len(script) > 0 {
		switch op := next() % numOps; op {
		case opSingle, opBatch:
			rows, sub := 1, int64(0)
			if op == opBatch {
				rows, sub = 1+int(next()%64), int64(len(o.tasks)+1)
			}
			spec := next()
			stages := 1 + int(spec%3)
			stage := int(spec/3) % stages
			batch := make([]*liveTask, rows)
			for i := range batch {
				task := queuedTask(len(o.tasks)+i, subs.of(sub), stage, o.now+Ticks(next()))
				task.task.NumStages, task.state.Arrival = stages, o.now
				if stage > 0 {
					task.state.Pred, task.state.Conf = stage, float64(stage)/4
				}
				batch[i] = task
			}
			if len(o.tasks)+rows <= maxScriptTasks {
				o.push(batch...)
			}
		case opPick:
			o.pick(int(next() % 4))
		case opCommit:
			i, ticks := int(next()), Ticks(next())
			if len(o.flights) == 0 {
				continue
			}
			i %= len(o.flights)
			res := make([]StageResult, len(o.flights[i]))
			for j := range res {
				res[j] = scriptResult(next())
			}
			o.commit(i, o.now+ticks, res)
		case opAdvance:
			o.now += Ticks(next())
		}
	}
	o.drain()
	return o
}

// byClockCases hold the core's deadline rule on one task of three stages
// due at tick 100, FIFO at MaxBatch 1, with nothing but the time to go
// by. A queued task is answered expired at the first pick at or after
// its deadline. A stage that ends after the deadline, by one tick, is
// discarded: the answer is expired and carries the stages that ended in
// time, with their prediction and confidence. A last stage that ends on
// the deadline counts.
var byClockCases = []struct {
	name          string
	stage         int  // the stage the task runs next
	pickAt, endAt byte // when a worker picks, and when its stage ends (0: nothing is picked)
	expired       bool
}{
	{"stage ends a tick late", 1, 90, 101, true},
	{"last stage ends a tick late", 2, 90, 101, true},
	{"last stage ends on the deadline", 2, 90, 100, false},
	{"queued and due at the pick", 1, 100, 0, true},
}

// byClockLate is the result of the stage a byClockCases worker runs.
const byClockLate = 0xe7

// byClockScript is a byClockCases case as a FuzzQueue script.
func byClockScript(stage int, pickAt, endAt byte) []byte {
	script := []byte{3, 0, 0, 0, // FIFO, MaxBatch 1, no cap, no forced exit
		opSingle, stageSpec(stage, 3), 100, opAdvance, pickAt, opPick, 0}
	if endAt != 0 {
		script = append(script, opCommit, 0, endAt-pickAt, byClockLate)
	}
	return script
}

// TestQueueAnswersByClock runs byClockCases under the oracle and pins
// the answer each must get.
func TestQueueAnswersByClock(t *testing.T) {
	for _, tc := range byClockCases {
		t.Run(tc.name, func(t *testing.T) {
			o := runScript(t, byClockScript(tc.stage, tc.pickAt, tc.endAt))
			want := taskModel{where: isAnswered, executed: tc.stage, pred: tc.stage, conf: float64(tc.stage) / 4,
				deadline: 100, expired: tc.expired}
			if !tc.expired {
				late := scriptResult(byClockLate)
				want.executed, want.pred, want.conf, want.prevConf = tc.stage+1, late.Pred, late.Conf, want.conf
			}
			if got := *o.model[o.tasks[0]]; got != want {
				t.Fatalf("answered %+v, want %+v", got, want)
			}
		})
	}
}

// FuzzQueue runs scripts of pushes, picks, commits and clock advances
// (see runScript) against the scheduler core under the oracle. Its seeds
// are byClockCases and, under each policy, a served-shape mix of two
// batches and singles at MaxBatch 64 with a slack cap and forced exits.
func FuzzQueue(f *testing.F) {
	for _, tc := range byClockCases {
		f.Add(byClockScript(tc.stage, tc.pickAt, tc.endAt))
	}
	for p := range scriptPolicies {
		script := []byte{byte(p), 63, 3, 4, opBatch, 31, stageSpec(0, 3)}
		for i := range 32 {
			script = append(script, byte(20+7*i))
		}
		script = append(script, opSingle, stageSpec(1, 3), 40, opBatch, 63, stageSpec(0, 2))
		for i := range 64 {
			script = append(script, byte(250-3*i))
		}
		script = append(script, opPick, 1, opPick, 0, opAdvance, 5, opSingle, stageSpec(0, 1), 9,
			opCommit, 0, 12, 200, 100, 50, opPick, 2, opCommit, 1, 30, 10, 20, opAdvance, 60, opPick, 0)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) { runScript(t, script) })
}
