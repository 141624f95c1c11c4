package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The helper pool runs the package's two kinds of work that are not a
// single product: Each, which spreads n independent tasks over the caller
// and idle helpers (the optimizer step, the Eq. 4 grid), and a Lane,
// which hands an ordered queue of jobs to one helper while the caller
// goes on (training's weight gradients). Every product — MatMul, TMatMul,
// MatMulT, Dense — runs inline on its caller over all its rows: the
// scheduler's workers already share the cores by handing each a whole
// stage, so a product never splits underneath them.
//
//   - Occupancy. The limit caps the goroutines that hold a core: callers
//     in Each or with a lane open, the helpers they reserved, and every
//     serving dispatch in flight (Hold). A caller takes helpers only for
//     the cores nothing else holds at that moment, and only helpers that
//     are idle; it never queues work behind a busy helper and never
//     starts a goroutine of its own. Callers are never held back, so c of
//     them at once run max(limit, c) goroutines (one that arrives while
//     another's helpers are busy adds itself on top until they finish).
//   - Dispatches. A serving dispatch holds its core for its whole stage:
//     one add and one subtract around ExecStageBatch, not one per GEMM. A
//     Train or subset-model request on a replica whose workers are busy
//     therefore takes no helper and runs on its own core.
//   - Order. Each's tasks and a lane's jobs write only their own
//     outputs, and a lane with no helper free when it opens runs each job
//     inline as it is queued, which is the order the work would have had
//     without it. So no result depends on which goroutine ran it or on
//     how many cores there were.

// maxParallelism bounds the pool (sanity cap, not a tuning knob).
const maxParallelism = 256

// gemmJob is one piece of work for a helper: a share of an Each, a lane
// to drain, or a lane's TMatMul. It travels by value, and run is a
// package-level function, never a closure, so handing a lane's job to a
// helper allocates nothing.
type gemmJob struct {
	run       func(gemmJob)
	dst, a, b *Matrix      // runTMatMul's operands
	each      *eachJob     // runEach's tasks
	queue     chan gemmJob // runLane: the lane's jobs
}

// gemmHelper is one pool goroutine. Whoever receives it from
// gemmPool.idle is the only sender on job and the only receiver on
// done until it puts the helper back.
type gemmHelper struct {
	job  chan gemmJob
	done chan struct{}
	next *gemmHelper // the taker's list
}

func (h *gemmHelper) serve() {
	for j := range h.job {
		j.run(j)
		h.done <- struct{}{}
	}
}

var gemmPool struct {
	limit atomic.Int32
	// inKernels counts the goroutines holding a core (see the policy at
	// the top of this file).
	inKernels atomic.Int32
	started   atomic.Int32
	mu        sync.Mutex
	// idle holds the helpers nobody has taken; its capacity is the most
	// helpers that can ever exist, so putting one back never blocks.
	idle chan *gemmHelper
}

func init() {
	// Default to one goroutine per schedulable core: explicit
	// SetParallelism overrides. Helpers spawn lazily on the first Each or
	// lane that finds a core free, so merely importing tensor starts
	// nothing.
	gemmPool.limit.Store(int32(min(runtime.GOMAXPROCS(0), maxParallelism)))
	gemmPool.idle = make(chan *gemmHelper, maxParallelism)
}

// SetParallelism caps how many goroutines may hold a core at once,
// across all callers (see the policy at the top of this file); callers
// are never blocked, so more concurrent callers than n simply all run
// inline. n ≤ 0 selects 1 (no helpers). The setting is process-wide;
// lowering it leaves the surplus helpers idle (a few KB each).
func SetParallelism(n int) {
	gemmPool.limit.Store(int32(max(1, min(n, maxParallelism))))
}

// Parallelism returns the current intra-op parallelism limit.
func Parallelism() int { return int(gemmPool.limit.Load()) }

// Hold counts the caller's core as busy until the matching Release, so
// that no Each or lane takes a helper for it meanwhile. A serving
// dispatch holds its core for its whole stage.
//
//eugene:noalloc
func Hold() { gemmPool.inKernels.Add(1) }

// Release ends a Hold.
//
//eugene:noalloc
func Release() { gemmPool.inKernels.Add(-1) }

// reserve counts the caller and up to want-1 helpers against the limit,
// the caller always, in one step, so two callers arriving together
// cannot both take the last free core. It returns how many it counted.
//
//eugene:noalloc
func reserve(want int) int32 {
	for {
		held := gemmPool.inKernels.Load()
		n := int32(max(1, min(want, int(gemmPool.limit.Load()-held))))
		if gemmPool.inKernels.CompareAndSwap(held, held+n) {
			return n
		}
	}
}

// ensureHelpers lazily grows the pool to n goroutines; the atomic fast
// path keeps the steady state lock-free.
func ensureHelpers(n int) {
	n = min(n, maxParallelism)
	if int(gemmPool.started.Load()) >= n {
		return
	}
	gemmPool.mu.Lock()
	for int(gemmPool.started.Load()) < n {
		h := &gemmHelper{job: make(chan gemmJob, 1), done: make(chan struct{}, 1)}
		go h.serve()
		gemmPool.idle <- h
		gemmPool.started.Add(1)
	}
	gemmPool.mu.Unlock()
}

// takeHelpers takes up to n helpers that are idle now, growing the pool
// to n first, and returns them as a list with its length.
//
//eugene:noalloc
func takeHelpers(n int) (taken *gemmHelper, k int) {
	if n <= 0 {
		return nil, 0
	}
	ensureHelpers(n)
	for ; k < n; k++ {
		var h *gemmHelper
		select {
		case h = <-gemmPool.idle:
		default:
			return taken, k
		}
		h.next, taken = taken, h
	}
	return taken, k
}

// join waits for each helper of the list to finish its job and puts it
// back.
//
//eugene:noalloc
func join(taken *gemmHelper) {
	for h := taken; h != nil; {
		<-h.done
		next := h.next
		h.next = nil
		gemmPool.idle <- h
		h = next
	}
}

// eachJob is one Each call's tasks, shared by the goroutines running
// them.
type eachJob struct {
	f    func(int)
	n    int64
	next atomic.Int64 // the next task to claim
}

func runEach(j gemmJob) {
	e := j.each
	for i := e.next.Add(1) - 1; i < e.n; i = e.next.Add(1) - 1 {
		e.f(int(i))
	}
}

// Each runs f(0), …, f(n-1) and returns when every call has returned.
// The calls run on the caller and on as many idle helpers as the limit
// leaves cores free for, each taking the lowest index not yet claimed;
// with no helper free they run inline, in order. Every f(i) must write
// only its own outputs: then what Each computes does not depend on which
// goroutine ran which index, or on how many there were.
func Each(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	cores := reserve(n)
	taken, k := takeHelpers(int(cores) - 1)
	// Give back the cores no idle helper was found for.
	gemmPool.inKernels.Add(int32(k+1) - cores)
	if taken == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
	} else {
		e := &eachJob{f: f, n: int64(n)}
		for h := taken; h != nil; h = h.next {
			h.job <- gemmJob{run: runEach, each: e}
		}
		runEach(gemmJob{each: e})
		join(taken)
	}
	gemmPool.inKernels.Add(-int32(k + 1))
}

// laneDepth is how many jobs a lane holds queued ahead of its helper;
// a caller that gets further ahead waits for the helper to take one. A
// training step queues one job per dense layer, under twenty at every
// shape Eugene trains, so it never waits.
const laneDepth = 32

// Lane is an ordered queue of jobs that one helper runs while the caller
// goes on, for work the caller does not need again until Wait: a layer's
// weight gradient while the backward pass continues down the chain.
//
// Open takes an idle helper if the limit leaves a core free for one;
// the helper then runs the jobs in the order they were queued. With
// none, each job runs inline when it is queued, which is the order the
// work would have had without a lane. A job's inputs must not change,
// and its outputs must not be read, until Wait has returned. Every Open
// is matched by a Wait. The zero value is a closed lane, whose jobs run
// inline, and so is a nil *Lane. A lane belongs to the goroutine that
// opens it, queues on it and waits for it.
type Lane struct {
	h     *gemmHelper // the helper draining q; nil when jobs run inline
	cores int32       // counted by Open, given back by Wait
	q     chan gemmJob
}

// Open starts a lane: it counts the caller's core and, if the limit
// leaves one free and a helper is idle, the helper's.
//
//eugene:noalloc
func (l *Lane) Open() {
	if l.cores != 0 {
		panic("tensor: Lane.Open on an open lane")
	}
	l.cores = reserve(2)
	if l.cores == 2 {
		if l.h, _ = takeHelpers(1); l.h == nil {
			gemmPool.inKernels.Add(-1)
			l.cores = 1
		}
	}
	if l.h == nil {
		return
	}
	if l.q == nil {
		l.q = make(chan gemmJob, laneDepth)
	}
	l.h.job <- gemmJob{run: runLane, queue: l.q}
}

// runLane runs a lane's jobs in order until Wait's end marker, the job
// with no run.
func runLane(j gemmJob) {
	for job := range j.queue {
		if job.run == nil {
			return
		}
		job.run(job)
	}
}

// do queues j on the lane, or runs it now when the lane has no helper.
//
//eugene:noalloc
func (l *Lane) do(j gemmJob) {
	if l == nil || l.h == nil {
		j.run(j)
		return
	}
	l.q <- j
}

// Wait returns once every job queued since Open has run, and closes the
// lane. On a closed lane, or one whose jobs ran inline, it returns at
// once.
//
//eugene:noalloc
func (l *Lane) Wait() {
	if l.h != nil {
		l.q <- gemmJob{}
		join(l.h)
		l.h = nil
	}
	gemmPool.inKernels.Add(-l.cores)
	l.cores = 0
}
