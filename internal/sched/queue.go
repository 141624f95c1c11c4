package sched

import (
	"math"
	"slices"
)

// queue is the scheduler core that both drivers run, Live on the wall
// clock and Simulate on a virtual one: the ready tasks, bucketed by the
// stage they run next, the Policy's pick, the group, and the commit of a
// dispatch's results. It takes the time as an argument, never blocks,
// reads no clock and takes no lock: Live calls it under its mu.
//
// The core keeps its tasks indexed as they enter (push) and leave (the
// sweep, a pick's group, drain), so that a pick costs O(stages + group),
// not O(queue). Each bucket keeps its tasks' deadlines and policy keys
// (see Policy) in columns, in ready order, the order they were pushed
// in, under a tree that sums every block of 64 places up by its earliest
// deadline and least key; each submission lists its own tasks there
// (see submission). The leader is the least key of all, ties going to
// the earlier task in ready order: stage by stage, each stage's tasks in
// the order they became ready.
type queue struct {
	policy   Policy
	maxBatch int
	// buckets[s] holds the ready tasks whose next stage is s.
	buckets []bucket
	// n counts the queued tasks.
	n int
	// due is the sweep's scratch.
	due []*liveTask
}

// rank is a policy's key for a queued task: the least leads.
type rank struct{ hi, lo int64 }

func (a rank) less(b rank) bool { return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo }

// bucket is the ready tasks of one stage. Its places number them in
// ready order, and tasks, keys and dues are its columns: the task at
// each place (nil where one has left), its policy key (absent where no
// task is, or one is hidden) and its deadline (never where no task is).
// A task keeps its place in liveTask.pos while it is queued, and −1
// otherwise. Over the places' blocks is an implicit tree of nodes:
// nodes[1] is the root, node i has children 2i and 2i+1, and node
// len(nodes)/2+j is block j's leaf; one block has no tree above its
// leaf.
type bucket struct {
	tasks []*liveTask
	keys  []rank
	dues  []Ticks
	nodes []node
	// first is the first place held (or end), end the first unused one,
	// and n the tasks present.
	first, end, n int
	// dirty holds the blocks changed since the tree was last updated.
	dirty []int
}

// blockPlaces is how many places a leaf of a bucket's tree sums up:
// enough that a bucket at the served batch size has no tree above one
// leaf, and that a group's leaves are few.
const blockPlaces = 64

// absent is the key of a place without a task, and of a hidden task's.
var absent = rank{math.MaxInt64, math.MaxInt64}

// node sums up the places under it: the least key there and its place
// (the leftmost of equals; −1 if every key is absent), and the earliest
// deadline.
type node struct {
	key  rank
	due  Ticks
	best int
}

// submission is one SubmitBatch call's index in the core: mates[s] lists
// its tasks in bucket s, so a task finds its batch-mates in O(1). The
// caller sizes mates to the tasks' stage count. A single submission has
// none (liveTask.sub is nil).
type submission struct{ mates []mates }

// mates is one submission's tasks in a bucket, in ready order, linked
// through liveTask.mprev and mnext.
type mates struct{ head, tail *liveTask }

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

// push queues ready tasks, each at the end of the bucket of the stage it
// runs next, under the key the policy gives it now.
//
//eugene:noalloc
func (q *queue) push(tasks ...*liveTask) {
	for _, t := range tasks {
		s := t.state.Executed
		for len(q.buckets) <= s {
			q.buckets = append(q.buckets, bucket{})
		}
		b := &q.buckets[s]
		if b.n == 0 {
			b.first, b.end = 0, 0 // every place is empty: start afresh
		}
		if b.end == len(b.tasks) {
			b.rebuild()
		}
		t.pos = b.end
		b.end++
		b.tasks[t.pos], b.keys[t.pos], b.dues[t.pos] = t, q.policy.key(t), t.state.Deadline
		b.mark(t.pos)
		b.n++
		if t.sub != nil {
			m := &t.sub.mates[s]
			t.mprev = m.tail
			if m.tail != nil {
				m.tail.mnext = t
			} else {
				m.head = t
			}
			m.tail = t
		}
		q.n++
	}
	for s := range q.buckets {
		q.buckets[s].update()
	}
}

// remove takes a queued task out of bucket b, which holds it. The
// caller updates b's tree once it has removed all it will.
//
//eugene:noalloc
func (q *queue) remove(b *bucket, t *liveTask) {
	if t.sub != nil {
		m := &t.sub.mates[t.state.Executed]
		if t.mprev != nil {
			t.mprev.mnext = t.mnext
		} else {
			m.head = t.mnext
		}
		if t.mnext != nil {
			t.mnext.mprev = t.mprev
		} else {
			m.tail = t.mprev
		}
	}
	t.mprev, t.mnext = nil, nil
	b.tasks[t.pos], b.keys[t.pos], b.dues[t.pos] = nil, absent, math.MaxInt64
	b.mark(t.pos)
	t.pos = -1
	b.n--
	q.n--
}

// queued reports whether t is in the queue. A task that left it reads −1
// at pos, which only the core writes, so queued tells it apart without
// reading its state, which its new owner may be writing: a worker
// running its stage, or, once it is answered, the next call its record
// is handed to.
func (q *queue) queued(t *liveTask) bool {
	if t.pos < 0 {
		return false
	}
	s := t.state.Executed
	return s < len(q.buckets) && t.pos < q.buckets[s].end && q.buckets[s].tasks[t.pos] == t
}

// key is the key a queued task was pushed with, or absent while it is
// hidden.
func (q *queue) key(t *liveTask) rank { return q.buckets[t.state.Executed].keys[t.pos] }

// rekey sets a queued task's key: absent hides it from best.
//
//eugene:noalloc
func (q *queue) rekey(t *liveTask, k rank) {
	b := &q.buckets[t.state.Executed]
	b.keys[t.pos] = k
	b.mark(t.pos)
	b.update()
}

// best returns the queued task of least key, the earlier in ready order
// among equals; nil if none is queued.
//
//eugene:noalloc
func (q *queue) best() *liveTask {
	var lead *liveTask
	var k rank
	for s := range q.buckets {
		b := &q.buckets[s]
		if b.n == 0 {
			continue
		}
		if root := &b.nodes[1]; root.best >= 0 && (lead == nil || root.key.less(k)) {
			lead, k = b.tasks[root.best], root.key
		}
	}
	return lead
}

// sweep answers the queued tasks that are due by now as expired, with
// the stages they have run, stage by stage, each stage's in ready order.
// It is the paper's deadline daemon, run from the clock at the one point
// a queued task's fate is decided: a worker's pick. The tree leads it to
// the due tasks alone.
//
//eugene:noalloc
func (q *queue) sweep(now Ticks, d driver) {
	for s := range q.buckets {
		b := &q.buckets[s]
		if b.n == 0 || b.nodes[1].due > now {
			continue
		}
		due := b.dueBy(now, 1, q.due[:0])
		for _, t := range due {
			q.remove(b, t)
		}
		b.update()
		for _, t := range due {
			d.finish(t, true, now)
		}
		clear(due)
		q.due = due[:0]
	}
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
	if q.n == 0 {
		return nil, 0
	}
	leader := q.policy.leader(q, now)
	stage := leader.state.Executed
	b := &q.buckets[stage]
	// The group is also capped by the slack of the tightest deadline in
	// the bucket: under admission control a full-width batch in front of
	// a nearly-due task would miss that deadline on dispatch time alone.
	capN := min(d.groupCap(b.nodes[1].due-now), groupSize(b.n, idle, q.maxBatch))
	// The leader's batch-mates come first; other submissions fill in
	// only while the group holds less than half of maxBatch, so singles
	// and small batches still coalesce. A call is answered when its last
	// row is: a group that mixed halves of two batches would tie each
	// call to the other's slower half, and one stalled dispatch would
	// hold two calls back rather than one.
	group = append(group[:0], leader)
	if leader.sub != nil {
		for t := leader.sub.mates[stage].head; t != nil && len(group) < capN; t = t.mnext {
			if t != leader {
				group = append(group, t)
			}
		}
	}
	for _, t := range group {
		q.remove(b, t)
	}
	if leader.sub == nil || 2*len(group) < q.maxBatch {
		for t := b.head(); t != nil && len(group) < capN; t = b.head() {
			q.remove(b, t)
			group = append(group, t)
		}
	}
	b.update()
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

// drain empties the queue and returns what it held, appended to tasks
// stage by stage, each stage's in ready order.
func (q *queue) drain(tasks []*liveTask) []*liveTask {
	for s := range q.buckets {
		b := &q.buckets[s]
		for t := b.head(); t != nil; t = b.head() {
			q.remove(b, t)
			tasks = append(tasks, t)
		}
		b.update()
	}
	return tasks
}

// head returns the bucket's first task in ready order, nil if it is
// empty. Each place it passes over is empty and stays behind it.
//
//eugene:noalloc
func (b *bucket) head() *liveTask {
	for ; b.first < b.end; b.first++ {
		if t := b.tasks[b.first]; t != nil {
			return t
		}
	}
	return nil
}

// mark notes that place p changed, for update.
//
//eugene:noalloc
func (b *bucket) mark(p int) {
	if j := p / blockPlaces; len(b.dirty) == 0 || b.dirty[len(b.dirty)-1] != j {
		b.dirty = append(b.dirty, j)
	}
}

// update sums up each block changed since the last update again, and the
// nodes above it. An empty bucket's tree is not read, so its blocks wait
// for the bucket's next update with tasks.
//
//eugene:noalloc
func (b *bucket) update() {
	if b.n == 0 {
		return
	}
	slices.Sort(b.dirty)
	leaves := len(b.nodes) / 2
	for k, j := range b.dirty {
		if k > 0 && b.dirty[k-1] == j {
			continue
		}
		b.sum(j)
		for i := (leaves + j) / 2; i >= 1; i /= 2 {
			b.pull(i)
		}
	}
	b.dirty = b.dirty[:0]
}

// sum sets block j's leaf from its places.
//
//eugene:noalloc
func (b *bucket) sum(j int) {
	n := node{key: absent, due: math.MaxInt64, best: -1}
	lo := j * blockPlaces
	hi := max(lo, min(lo+blockPlaces, b.end))
	dues := b.dues[lo:hi]
	for p, k := range b.keys[lo:hi] {
		n.due = min(n.due, dues[p])
		if k.less(n.key) { // an absent key is never less
			n.key, n.best = k, lo+p
		}
	}
	b.nodes[len(b.nodes)/2+j] = n
}

// pull sets node i from its children.
//
//eugene:noalloc
func (b *bucket) pull(i int) {
	n, l, r := &b.nodes[i], &b.nodes[2*i], &b.nodes[2*i+1]
	if l.best < 0 || r.best >= 0 && r.key.less(l.key) {
		n.key, n.best = r.key, r.best
	} else {
		n.key, n.best = l.key, l.best
	}
	n.due = min(l.due, r.due)
}

// dueBy appends the tasks under node i due by now to out, in ready
// order, visiting only the nodes above them.
//
//eugene:noalloc
func (b *bucket) dueBy(now Ticks, i int, out []*liveTask) []*liveTask {
	if b.nodes[i].due > now {
		return out
	}
	if leaves := len(b.nodes) / 2; i >= leaves {
		j := i - leaves
		for p := j * blockPlaces; p < min((j+1)*blockPlaces, b.end); p++ {
			if b.dues[p] <= now {
				out = append(out, b.tasks[p])
			}
		}
		return out
	}
	return b.dueBy(now, 2*i+1, b.dueBy(now, 2*i, out))
}

// rebuild renumbers the bucket's places from 0 in ready order, making
// room for at least as many pushes again as it holds tasks, and sums
// every block up afresh. Reached when the places run out, once per that
// many pushes.
//
//eugene:noalloc
func (b *bucket) rebuild() {
	size := max(len(b.tasks), blockPlaces)
	for size < 2*(b.n+1) {
		size *= 2
	}
	tasks, keys, dues := b.tasks[b.first:b.end], b.keys, b.dues
	if cap(b.tasks) < size {
		b.tasks, b.keys, b.dues = make([]*liveTask, size), make([]rank, size), make([]Ticks, size)
		b.nodes = make([]node, 2*size/blockPlaces)
	}
	// Renumbering in ready order only moves tasks to lower places, so
	// the columns can move within themselves.
	n := 0
	for _, t := range tasks {
		if t != nil {
			b.tasks[n], b.keys[n], b.dues[n] = t, keys[t.pos], dues[t.pos]
			t.pos = n
			n++
		}
	}
	b.first, b.end = 0, n
	clear(b.tasks[n:])
	leaves := len(b.nodes) / 2
	for j := range leaves {
		b.sum(j)
	}
	for i := leaves - 1; i >= 1; i-- {
		b.pull(i)
	}
	b.dirty = b.dirty[:0]
}
