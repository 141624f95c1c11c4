package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eugene/internal/failpoint"
	"eugene/internal/tensor"
)

// StageExecutor executes stages of a staged model on explicit hidden
// states; staged.Model satisfies this via ExecStageBatch (adapted — see
// core). Each worker owns one executor (model clone) and drives it from
// a single goroutine, so executors may keep internal scratch.
type StageExecutor interface {
	// ExecStageBatch executes one stage for several tasks that are all
	// at the same stage, one hidden state per row, and returns the new
	// hidden states and results in matching order (a group of one is
	// legal and common). Stage-0 input rows must only be read (callers
	// retain raw request inputs); rows for later stages may be reused in
	// place.
	//
	// dst is the worker-local scratch handle: when non-nil, dst[i] is a
	// zero-length slice whose capacity the executor should use for task
	// i's output row (write the stage output there and return
	// dst[i][:width]) whenever the capacity suffices and the input row
	// cannot be reused in place. Executors may ignore dst entirely and
	// return their own buffers; the worker detects which rows were
	// adopted by pointer identity and recycles the rest. The returned
	// outer slices may be executor-owned scratch, valid until the next
	// call.
	ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []StageResult)
	// NumStages returns the exit count.
	NumStages() int
}

// DefaultMaxBatch is the stage-batch cap used when LiveConfig.MaxBatch
// is zero: large enough that one dispatch streams a stage's weights
// (≈ 2 MB at the benchmark's shape) for 64 rows rather than fetching
// them again every 32, and turns per-task GEMVs into one GEMM; small
// enough that one batch cannot monopolize a worker past typical
// deadlines. A worker takes the whole cap only when its peers are busy
// (see groupSize).
const DefaultMaxBatch = 64

// LiveConfig configures the real-time executor.
type LiveConfig struct {
	// Workers is the goroutine-pool size (the paper's process pool).
	Workers int
	// Deadline is the maximum latency per task, enforced by the
	// scheduler core from the clock: a task still queued at its deadline
	// is answered at the next pick, and a stage that ends past it is
	// discarded.
	Deadline time.Duration
	// QueueDepth is the most rows one call may submit: a SubmitBatch of
	// more is refused with ErrBatchTooLarge. It bounds a call, not the
	// system; what is in the system is the admission forecast's backlog.
	QueueDepth int
	// MaxBatch caps how many same-stage pending tasks a worker
	// coalesces into one dispatch (one ExecStageBatch call).
	// 0 means DefaultMaxBatch; 1 disables coalescing.
	MaxBatch int
	// Admission enables SLO admission control: Submit/SubmitBatch
	// forecast each request's completion time from the observed
	// per-stage cost and the current backlog, and reject with
	// ErrOverloaded (instead of queueing work that is already dead on
	// arrival) when the forecast misses the deadline. It also sizes
	// dispatch groups by the slack of the tightest deadline in the
	// bucket and arms the degradation ladder (see DegradeLevel).
	Admission bool
	// DegradeSignal, when non-nil, receives the executor's degradation
	// level (Degrade* constants) whenever it changes — the hook the
	// serving layer uses to switch executors to a cheaper precision
	// tier at DegradeTier. Only written under Admission.
	DegradeSignal *atomic.Int32
}

// Validate reports an error for degenerate configurations.
func (c LiveConfig) Validate() error {
	switch {
	case c.Workers < 1:
		return fmt.Errorf("sched: live workers %d must be ≥1", c.Workers)
	case c.Deadline <= 0:
		return fmt.Errorf("sched: live deadline %v must be positive", c.Deadline)
	case c.QueueDepth < 1:
		return fmt.Errorf("sched: live queue depth %d must be ≥1", c.QueueDepth)
	case c.MaxBatch < 0:
		return fmt.Errorf("sched: live max batch %d must be ≥0", c.MaxBatch)
	}
	return nil
}

// Response is the service's answer for one task.
type Response struct {
	Pred    int     `json:"pred"`
	Conf    float64 `json:"conf"`
	Stages  int     `json:"stages"`
	Expired bool    `json:"expired"`
	Latency time.Duration
}

// Unanswered reports whether the task expired before any stage ran; the
// batch paths use it in place of the per-call ErrUnanswered.
func (r Response) Unanswered() bool { return r.Expired && r.Stages == 0 }

// ErrUnanswered is returned when a task's deadline passed before any
// stage could execute.
var ErrUnanswered = errors.New("sched: deadline before first stage completed")

// ErrStopped is returned for submissions after Stop.
var ErrStopped = errors.New("sched: executor stopped")

// ErrBatchTooLarge is wrapped by SubmitBatch's error for a batch of
// more rows than QueueDepth: no amount of waiting admits it, unlike an
// ErrOverloaded, so a caller must not retry it. Its text is the phrase
// that message has always carried.
var ErrBatchTooLarge = errors.New("exceeds queue depth")

// The latency histogram behind Stats percentiles: geometric buckets,
// latBucketsPerOctave per power of two, spanning 1µs to ~2^40µs (≈13
// days). Recording a finish is one increment and a Stats call copies a
// small counter array instead of copying and sorting a reservoir, so
// pollers of /v1/stats stay off the serving hot path.
const (
	latBucketsPerOctave = 8
	latOctaves          = 40
	latBuckets          = latOctaves * latBucketsPerOctave
)

// latBucket maps a latency to its histogram bucket.
func latBucket(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us <= 1 {
		return 0
	}
	b := int(math.Log2(us) * latBucketsPerOctave)
	if b >= latBuckets {
		return latBuckets - 1
	}
	return b
}

// latBucketValue returns the upper bound of bucket b, the value reported
// for percentiles that land in it (≤ one 2^(1/8) step ≈ 9% above the
// true latency).
func latBucketValue(b int) time.Duration {
	us := math.Exp2(float64(b+1) / latBucketsPerOctave)
	return time.Duration(us * float64(time.Microsecond))
}

// histPercentile walks the histogram to the bucket containing the given
// 0-based rank.
func histPercentile(hist *[latBuckets]uint64, rank uint64) time.Duration {
	var cum uint64
	for b := range hist {
		cum += hist[b]
		if cum > rank {
			return latBucketValue(b)
		}
	}
	return 0
}

// LiveStats is a point-in-time snapshot of one executor's serving
// counters. Answered and Expired can overlap: a task that ran some but
// not all stages before its deadline counts in both.
type LiveStats struct {
	// Submitted counts tasks accepted by Submit/SubmitBatch.
	Submitted uint64 `json:"submitted"`
	// Answered counts finished tasks with ≥1 executed stage.
	Answered uint64 `json:"answered"`
	// Expired counts tasks finished past their deadline.
	Expired uint64 `json:"expired"`
	// Unanswered counts tasks that expired before any stage ran.
	Unanswered uint64 `json:"unanswered"`
	// QueueDepth is the number of tasks currently in the system
	// (queued or executing).
	QueueDepth int `json:"queue_depth"`
	// Rejected counts tasks refused at admission (ErrOverloaded).
	Rejected uint64 `json:"rejected"`
	// Goodput counts tasks answered within their deadline (≥1 stage
	// executed and not expired) — the paper-faithful serving metric.
	Goodput uint64 `json:"goodput"`
	// DegradeLevel is the current degradation-ladder level (0 normal,
	// 1 forced earlier exits, 2 reduced-precision tier).
	DegradeLevel int `json:"degrade_level"`
	// P50 and P99 are latency percentiles over all finished tasks,
	// read from a geometric histogram (bucket upper bounds, ≈9%
	// resolution).
	P50 time.Duration `json:"p50"`
	P99 time.Duration `json:"p99"`
}

// liveTask is one in-system request. Task records are pooled.
//
// Ownership discipline: between stages a task belongs to the ready
// queue (access under Live.mu); during a stage it belongs to the
// executing worker. Only the owner reads or writes state/hidden and
// only the owner finalizes, so no per-task lock guards them.
type liveTask struct {
	state  TaskState
	task   Task
	hidden []float64
	done   chan Response
	// sub is the SubmitBatch call the task came with; nil for a call of
	// one row.
	sub *submission
	// ownsBuf marks hidden as a worker-arena buffer, recycled when the
	// task finishes or the executor swaps the row out.
	ownsBuf bool

	// The scheduler core's index of the task (see queue): its place in
	// its bucket while it is queued, −1 once it has left, and its
	// neighbours in ready order among its batch-mates there (nil
	// otherwise).
	pos          int
	mprev, mnext *liveTask
}

// Live is the paper's RTDeepIoT scheduler (Section III) on the wall
// clock: the scheduler core that Simulate drives on a virtual one (see
// queue), with a pool of workers and admission around it. A worker
// takes the core's next same-stage group under mu, runs it as one
// batched forward pass, and puts the survivors back on the queue for
// whichever worker is free next. The paper's deadline daemon is the
// clock the core already reads: a pick answers the queued tasks that
// are due, and a stage's commit discards a result that came too late.
// A worker sleeps only when its pick has nothing to run, which after the
// sweep means an empty queue (see Policy), so no due task waits on an
// idle pool. It mirrors the paper's user-space scheduler + TensorFlow
// process pool + named-pipe reporting, with a shared-memory queue in
// place of pipes.
type Live struct {
	cfg LiveConfig

	nextID atomic.Int64

	// mu guards the scheduler core (the ready queue, the policy's pick
	// state) and the stopped flag. Workers with nothing to run sleep on
	// work, which is signalled whenever the queue gains tasks or the
	// executor stops.
	mu      sync.Mutex
	work    *sync.Cond
	q       queue
	stopped bool
	// idle counts the workers waiting on work; a worker a Broadcast
	// woke still counts until it has the lock.
	idle int

	taskPool  sync.Pool // *liveTask
	batchPool sync.Pool // *batchCall
	bufPool   sync.Pool // *[]float64: hidden-row overflow shared across workers

	// stopCh is closed when stopped is set, for the submitters, which
	// wait in selects.
	stopCh chan struct{}
	wg     sync.WaitGroup
	epoch  time.Time

	// Serving counters: atomics so stats recording never contends on
	// the submit or finish hot paths.
	submitted  atomic.Uint64
	answered   atomic.Uint64
	expired    atomic.Uint64
	unanswered atomic.Uint64
	goodput    atomic.Uint64
	inSystem   atomic.Int64
	latHist    [latBuckets]atomic.Uint64

	// adm is the SLO admission-control and degradation state.
	adm admitState
}

// NewLive starts the executor. executors must have length cfg.Workers;
// each is owned exclusively by one worker goroutine. Call Stop to shut
// down.
func NewLive(cfg LiveConfig, policy Policy, executors []StageExecutor) (*Live, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if len(executors) != cfg.Workers {
		return nil, fmt.Errorf("sched: %d executors for %d workers", len(executors), cfg.Workers)
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	l := &Live{
		cfg:    cfg,
		q:      queue{policy: policy, maxBatch: cfg.MaxBatch},
		stopCh: make(chan struct{}),
		epoch:  time.Now(),
	}
	l.work = sync.NewCond(&l.mu)
	for _, exec := range executors {
		l.wg.Add(1)
		go l.worker(exec)
	}
	return l, nil
}

func (l *Live) nowTicks() Ticks { return Ticks(time.Since(l.epoch)) }

// getTask checks a task record out of the arena and stamps it with its
// arrival and deadline. The input slice is taken over without
// copying: Submit/SubmitBatch callers hand freshly allocated slices
// (HTTP decoding, batch assembly) and must not mutate them afterwards.
// Executors never write to stage-0 inputs (see StageExecutor), so the
// slice stays intact even when a task outlives its caller via context
// cancellation or an executor-stop retry.
//
//eugene:noalloc
func (l *Live) getTask(input []float64, numStages int, arrival, deadline Ticks) *liveTask {
	t, _ := l.taskPool.Get().(*liveTask)
	if t == nil {
		t = &liveTask{done: make(chan Response, 1)}
	}
	t.task = Task{ID: int(l.nextID.Add(1)), NumStages: numStages}
	t.state = TaskState{Task: &t.task, Arrival: arrival, Deadline: deadline, Pred: -1}
	t.hidden = input
	t.ownsBuf = false
	t.sub = nil
	return t
}

// putTask returns a finished task to the arena. Only the submitter may
// call it, and only after reading the response: at that point the
// owner has dropped every reference and the done channel is empty.
//
//eugene:noalloc
func (l *Live) putTask(t *liveTask) {
	t.hidden = nil
	t.state.Task = nil
	l.taskPool.Put(t)
}

// finalize delivers a task's response at now and folds it into the
// serving counters. Callers must own the task, which is answered once;
// the buffered channel makes the send non-blocking.
//
//eugene:noalloc
func (l *Live) finalize(t *liveTask, expired bool, now Ticks) {
	st := &t.state
	stages, lat := st.Executed, time.Duration(now-st.Arrival)
	if stages > 0 {
		l.answered.Add(1)
		// Feed the admission model's stages-per-task average with every
		// answered task, expired or not — under load the executed-stage
		// count is exactly the service time the next admission forecast
		// should assume.
		l.adm.taskStages.Observe(stagesAlpha, float64(stages))
		if !expired {
			l.goodput.Add(1)
		}
	}
	if expired {
		l.expired.Add(1)
		if stages == 0 {
			l.unanswered.Add(1)
		}
	}
	l.latHist[latBucket(lat)].Add(1)
	l.inSystem.Add(-1)
	t.done <- Response{
		Pred:    st.Pred,
		Conf:    st.Conf,
		Stages:  st.Executed,
		Expired: expired,
		Latency: lat,
	}
}

// Stats returns a snapshot of the executor's serving counters. Safe to
// call concurrently with Submit/SubmitBatch: every counter is an atomic
// and percentiles are selected from a copy of the fixed-size histogram,
// allocation-free.
func (l *Live) Stats() LiveStats {
	s := LiveStats{
		Submitted:    l.submitted.Load(),
		Answered:     l.answered.Load(),
		Expired:      l.expired.Load(),
		Unanswered:   l.unanswered.Load(),
		Goodput:      l.goodput.Load(),
		Rejected:     l.adm.rejected.Load(),
		DegradeLevel: l.DegradeLevel(),
		QueueDepth:   int(l.inSystem.Load()),
	}
	var hist [latBuckets]uint64
	var n uint64
	for b := range hist {
		hist[b] = l.latHist[b].Load()
		n += hist[b]
	}
	if n > 0 {
		s.P50 = histPercentile(&hist, n/2)
		s.P99 = histPercentile(&hist, min(n-1, n*99/100))
	}
	return s
}

// push puts ready tasks on the queue; once the executor has stopped it
// answers them as expired instead, as Stop's drain would have. Waking
// workers for the new tasks is the caller's, after the lock is released.
//
//eugene:noalloc
func (l *Live) push(tasks []*liveTask) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pushLocked(tasks)
}

// pushLocked is push for a caller that holds mu.
//
//eugene:noalloc
func (l *Live) pushLocked(tasks []*liveTask) {
	if !l.stopped {
		l.q.push(tasks...)
		return
	}
	now := l.nowTicks()
	for _, t := range tasks {
		l.finalize(t, true, now)
	}
}

// Submit is SubmitBatch for one row: it returns that row's response,
// with ErrUnanswered when its deadline passed before any stage ran.
func (l *Live) Submit(ctx context.Context, input []float64, numStages int) (Response, error) {
	out, err := l.SubmitBatch(ctx, [][]float64{input}, numStages)
	if err != nil {
		return Response{}, err
	}
	if out[0].Unanswered() {
		return out[0], ErrUnanswered
	}
	return out[0], nil
}

// SubmitBatch enqueues len(inputs) tasks in one step — every worker
// sees the whole batch at its next pick — and blocks until every task is
// answered or expires. Responses are in input order; per-task expiry is
// reported through Response.Expired / Response.Unanswered rather than
// an error, so one late task does not hide the other answers. The error
// is reserved for whole-batch failures (stopped executor, cancelled
// context). It takes ownership of the input slices: the caller must not
// mutate them, even after an early return on a cancelled context, when
// stages may still be executing against them.
func (l *Live) SubmitBatch(ctx context.Context, inputs [][]float64, numStages int) ([]Response, error) {
	if numStages < 1 {
		return nil, fmt.Errorf("sched: task needs ≥1 stage")
	}
	if len(inputs) == 0 {
		return nil, nil
	}
	if len(inputs) > l.cfg.QueueDepth {
		return nil, fmt.Errorf("sched: batch of %d %w %d", len(inputs), ErrBatchTooLarge, l.cfg.QueueDepth)
	}
	select {
	case <-l.stopCh:
		return nil, ErrStopped
	default:
	}
	// SLO admission: batches are admitted or rejected atomically — the
	// forecast covers the completion of the batch's last task.
	if err := l.admit(len(inputs)); err != nil {
		return nil, err
	}
	c, _ := l.batchPool.Get().(*batchCall)
	if c == nil {
		c = &batchCall{tasks: make([]*liveTask, 0, len(inputs))}
	}
	if len(c.sub.mates) < numStages {
		c.sub.mates = make([]mates, numStages)
	}
	batch := c.tasks[:0]
	// One clock read for the whole call: its rows arrive together, and a
	// read a row would delay the first dispatch of a large batch.
	now := time.Now()
	arrival, deadline := Ticks(now.Sub(l.epoch)), Ticks(now.Add(l.cfg.Deadline).Sub(l.epoch))
	for _, in := range inputs {
		t := l.getTask(in, numStages, arrival, deadline)
		if len(inputs) > 1 {
			// A row alone in its call has no batch-mates: the core keeps
			// it as a single.
			t.sub = &c.sub
		}
		batch = append(batch, t)
	}
	l.submitted.Add(uint64(len(batch)))
	l.inSystem.Add(int64(len(batch)))
	l.push(batch)
	if len(batch) == 1 {
		l.work.Signal() // one row is work for one worker
	} else {
		l.work.Broadcast()
	}
	out := make([]Response, len(batch))
	for i, t := range batch {
		select {
		case r := <-t.done:
			out[i] = r
		case <-l.stopCh:
			return nil, ErrStopped
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	for _, t := range batch {
		l.putTask(t)
	}
	// Every task is answered, so none is queued any more: the
	// submission's lists are empty for the next call.
	c.tasks = batch
	l.batchPool.Put(c)
	return out, nil
}

// batchCall is a SubmitBatch call's pooled state: its tasks, and its
// submission, whose batch-mate lists the scheduler core keeps.
type batchCall struct {
	tasks []*liveTask
	sub   submission
}

// Stop shuts the executor down and waits for its goroutines. Queued
// tasks receive expired responses.
func (l *Live) Stop() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		close(l.stopCh)
	}
	l.mu.Unlock()
	l.work.Broadcast()
	l.wg.Wait()
	// The workers are gone and push queues nothing more, so what is
	// queued now is all there will ever be. Failpoint: chaos tests delay
	// here to hold tasks unanswered while their submitters see the stop.
	failpoint.Hit("sched.drain")
	l.mu.Lock()
	l.pushLocked(l.q.drain(nil)) // answered as expired, the executor being stopped
	l.mu.Unlock()
}

// workerState is one worker's private dispatch scratch: group/rows/dst
// slices reused across dispatches and the hidden-row arena. maxW tracks
// the widest hidden state seen so far; arena rows are sized to it so a
// task's buffer survives every stage in place.
type workerState struct {
	live *Live
	exec StageExecutor

	group []*liveTask
	surv  []*liveTask
	rows  [][]float64
	dst   [][]float64
	bufs  [][]float64
	maxW  int
}

// maxArenaBufs bounds one worker's lock-free hidden-row freelist;
// overflow spills to the Live-wide sync.Pool, which also rebalances
// buffers across workers: a task is finished by whichever worker ran
// its last stage, not by the one whose arena its row came from.
const maxArenaBufs = 256

//eugene:noalloc
func (ws *workerState) getBuf() []float64 {
	for n := len(ws.bufs); n > 0; n = len(ws.bufs) {
		b := ws.bufs[n-1]
		ws.bufs[n-1] = nil
		ws.bufs = ws.bufs[:n-1]
		if cap(b) >= ws.maxW {
			return b[:0]
		}
		// Undersized (the observed width grew): drop it.
	}
	if p, _ := ws.live.bufPool.Get().(*[]float64); p != nil && cap(*p) >= ws.maxW {
		return (*p)[:0]
	}
	//lint:ignore hotpathalloc pool-miss fallback: freelist and shared pool are both empty (or maxW grew), so a fresh row is the only option; steady state never reaches this line
	return make([]float64, 0, ws.maxW)
}

//eugene:noalloc
func (ws *workerState) putBuf(b []float64) {
	if cap(b) < ws.maxW {
		return
	}
	if len(ws.bufs) < maxArenaBufs {
		ws.bufs = append(ws.bufs, b[:0])
		return
	}
	ws.live.spillBuf(b)
}

// spillBuf boxes an overflowing arena row into the shared pool. Kept
// out of putBuf so the &b escape (and its header allocation) is paid
// only on the overflow path, not on every freelist return.
func (l *Live) spillBuf(b []float64) {
	b = b[:0]
	l.bufPool.Put(&b)
}

// sameBase reports whether two slices share a backing array.
func sameBase(a, b []float64) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// finish recycles the task's arena row and delivers its response; it is
// a driver hook of the core, as are groupCap and forceExit.
//
//eugene:noalloc
func (ws *workerState) finish(t *liveTask, expired bool, now Ticks) {
	if t.ownsBuf {
		ws.putBuf(t.hidden)
		t.ownsBuf = false
	}
	t.hidden = nil
	ws.live.finalize(t, expired, now)
}

func (ws *workerState) groupCap(slack Ticks) int { return ws.live.groupCap(slack) }

func (ws *workerState) forceExit(slack Ticks) bool { return ws.live.forceExit(slack) }

// worker is one scheduler worker: take the policy's next same-stage
// group off the queue, run it as one batched forward pass, put the
// survivors back and take again.
//
// A dispatch that answered tasks yields before the next one. An answer
// wakes its submitter onto this worker's core, where it would otherwise
// wait until this worker ran out of work: with every core running a
// worker, a finished call then waits for the rest of the queue, and how
// long depends on how the callers' batches happen to interleave.
func (l *Live) worker(exec StageExecutor) {
	defer l.wg.Done()
	ws := &workerState{live: l, exec: exec}
	var surv []*liveTask
	for {
		group, stage := ws.take(surv)
		if group == nil {
			return
		}
		surv = ws.run(group, stage)
		if len(surv) < len(group) {
			runtime.Gosched()
		}
	}
}

// take queues the survivors of this worker's last dispatch, then blocks
// until the policy has a dispatch for it and returns its group; nil
// means the executor has stopped. Queueing and picking are one critical
// section, so a worker's continuations are in the bucket it picks from
// and a sibling finishing at the same moment cannot fold its own into
// this worker's next group.
//
//eugene:noalloc
func (ws *workerState) take(surv []*liveTask) ([]*liveTask, int) {
	l := ws.live
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pushLocked(surv)
	for !l.stopped {
		if group, stage := l.q.pick(l.nowTicks(), l.idle, ws.group, ws); group != nil {
			ws.group = group
			if l.idle > 0 && l.q.n > 0 {
				// Work is left over for a worker that waits.
				l.work.Signal()
			}
			return group, stage
		}
		l.idle++
		l.work.Wait()
		l.idle--
	}
	return nil, 0
}

// run executes one same-stage group as a batched forward pass, commits
// the results, and returns the survivors for take to put back on the
// queue, where their next stage coalesces with whatever else is pending
// at that stage. They are worker scratch, valid until the next run.
//
//eugene:noalloc
func (ws *workerState) run(group []*liveTask, stage int) []*liveTask {
	l := ws.live
	rows := ws.rows[:0]
	for _, t := range group {
		rows = append(rows, t.hidden)
	}
	ws.rows = rows
	var dst [][]float64
	if ws.maxW > 0 {
		dst = ws.dst[:0]
		for _, t := range group {
			// Tasks already riding a full-width arena row reuse it in
			// place; only the rest (stage-0 inputs, transitional slab
			// rows) get a fresh arena row to land on.
			if t.ownsBuf && cap(t.hidden) >= ws.maxW {
				dst = append(dst, nil)
			} else {
				dst = append(dst, ws.getBuf())
			}
		}
		ws.dst = dst
	}
	// Failpoint: chaos tests delay here to hold a batch in flight
	// across a concurrent Stop/teardown. It sits inside the dispatch
	// timing window so an injected stall is visible to the admission
	// cost model, exactly like a genuinely slow worker.
	dispatchStart := time.Now()
	failpoint.Hit("sched.dispatch")
	// The dispatch holds its core in tensor's occupancy count, so that
	// training or calibration beside a busy pool takes no helper for it.
	tensor.Hold()
	hidden, res := ws.exec.ExecStageBatch(rows, stage, dst)
	tensor.Release()
	l.adm.observeDispatch(len(group), time.Since(dispatchStart))
	for i, t := range group {
		row := hidden[i]
		if len(row) > ws.maxW {
			ws.maxW = len(row)
		}
		// Arena accounting: adopt the dst row if the executor used it,
		// recycle it otherwise; recycle the task's previous arena row
		// if the executor swapped it out.
		if t.ownsBuf && !sameBase(row, t.hidden) {
			ws.putBuf(t.hidden)
			t.ownsBuf = false
		}
		if dst != nil {
			if sameBase(row, dst[i]) {
				t.ownsBuf = true
			} else {
				ws.putBuf(dst[i])
			}
			dst[i] = nil
		}
		t.hidden = row
	}
	ws.surv = l.q.commit(group, res, l.nowTicks(), ws.surv[:0], ws)
	return ws.surv
}
