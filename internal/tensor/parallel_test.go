package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingTasks returns an Each task body whose calls report on
// entered and then wait for release.
func blockingTasks(n int) (f func(int), entered, release chan struct{}) {
	entered = make(chan struct{}, n)
	release = make(chan struct{})
	return func(int) {
		entered <- struct{}{}
		<-release
	}, entered, release
}

// TestBusyHelperDoesNotStallOtherCallers holds every helper the pool has
// started inside an Each whose tasks do not end, then raises the limit
// so that a second caller's Each has cores free: finding no idle helper,
// it must run its tasks inline, in order, and return, not wait for one.
func TestBusyHelperDoesNotStallOtherCallers(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	ensureHelpers(1)
	helpers := int(gemmPool.started.Load()) // other tests may have started more

	SetParallelism(helpers + 1)
	block, entered, release := blockingTasks(helpers + 1)
	owner := make(chan struct{})
	go func() {
		defer close(owner)
		Each(helpers+1, block)
	}()
	for i := 0; i <= helpers; i++ { // the owner's task and one per helper
		<-entered
	}
	SetParallelism(2 * (helpers + 1))

	var order []int
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Each(helpers+1, func(i int) { order = append(order, i) })
	}()
	select {
	case <-finished:
		if len(order) != helpers+1 || order[0] != 0 || order[helpers] != helpers {
			t.Errorf("second caller ran %v, want every task inline in order", order)
		}
	case <-time.After(10 * time.Second):
		t.Error("an Each waited for a busy helper")
	}
	close(release)
	<-owner
	<-finished
	if held := gemmPool.inKernels.Load(); held != 0 {
		t.Errorf("%d cores still counted", held)
	}
}

// TestOccupancyCapsHelpers holds both cores of a limit of two inside one
// caller's Each and checks that a second caller's Each takes no helper
// although an idle one exists, and that the count of goroutines holding
// a core returns to zero.
func TestOccupancyCapsHelpers(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	ensureHelpers(2) // one for the first caller, one left idle

	block, entered, release := blockingTasks(2)
	owner := make(chan struct{})
	go func() {
		defer close(owner)
		Each(2, block)
	}()
	<-entered
	<-entered
	if held := gemmPool.inKernels.Load(); held != 2 {
		t.Errorf("%d goroutines counted holding a core, want the caller and its helper", held)
	}

	idle := len(gemmPool.idle)
	var order []int // appended by the one goroutine that runs the tasks below
	Each(4, func(i int) {
		if len(gemmPool.idle) != idle {
			t.Errorf("task %d: a helper was taken with every core held", i)
		}
		order = append(order, i)
	})
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Errorf("second caller ran %v, want [0 1 2 3] inline", order)
	}
	close(release)
	<-owner
	if held := gemmPool.inKernels.Load(); held != 0 {
		t.Errorf("%d goroutines still counted holding a core", held)
	}
}

// TestEachConcurrent runs Each from competing goroutines (several
// scheduler workers sharing the helpers), each task a row of a product
// written to its own output, and checks every result; with -race this
// also vets the hand-off.
func TestEachConcurrent(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(4)
	const m, n, k = 48, 64, 96
	a, b, _, _ := gemmOperands(13, m, n, k)
	want := NewMatrix(m, n)
	MatMulT(want, a, b)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := NewMatrix(m, n)
			for iter := 0; iter < 20; iter++ {
				Each(m, func(i int) {
					MatMulT(&Matrix{Rows: 1, Cols: n, Data: got.Row(i)}, &Matrix{Rows: 1, Cols: k, Data: a.Row(i)}, b)
				})
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("concurrent Each diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if held := gemmPool.inKernels.Load(); held != 0 {
		t.Errorf("%d goroutines still counted holding a core", held)
	}
}

// helpersIdle reports whether every helper the pool has started is idle.
func helpersIdle() bool { return len(gemmPool.idle) == int(gemmPool.started.Load()) }

// holdAll holds every core of a limit of two and returns the undo.
func holdAll(t *testing.T) func() {
	t.Helper()
	par := Parallelism()
	SetParallelism(2)
	ensureHelpers(2)
	Hold()
	Hold()
	return func() {
		Release()
		Release()
		SetParallelism(par)
	}
}

// TestEachAndLaneInlineWhenCoresHeld: with every core held, Each and a
// lane take no helper; tasks and jobs run on the caller, in order, a
// lane's job before the call that queues it returns, and Wait returns at
// once.
func TestEachAndLaneInlineWhenCoresHeld(t *testing.T) {
	defer holdAll(t)()
	var order []int
	Each(5, func(i int) {
		if !helpersIdle() {
			t.Errorf("task %d: a helper was taken with every core held", i)
		}
		order = append(order, i)
	})
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("Each ran %v, want [0 1 2 3 4] inline", order)
	}

	var l Lane
	l.Open()
	if l.h != nil {
		t.Fatal("Lane.Open took a helper with every core held")
	}
	order = order[:0]
	for i := 0; i < 3; i++ {
		l.do(gemmJob{run: func(gemmJob) { order = append(order, i) }})
		if len(order) != i+1 {
			t.Fatalf("job %d had not run when do returned", i)
		}
	}
	l.Wait()
	if held := gemmPool.inKernels.Load(); held != 2 {
		t.Errorf("%d cores counted after Wait, want the two holds", held)
	}
}

// TestLaneRunsOnHelper: with a core free, Open takes a helper, queued
// jobs run on it in order while the caller goes on, Wait joins it, and
// the count returns to zero. An empty lane's Wait, a closed lane's and
// a nil lane's do return at once.
func TestLaneRunsOnHelper(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	ensureHelpers(1)

	var l Lane
	l.Open()
	if l.h == nil {
		t.Fatal("Lane.Open took no helper with a core free")
	}
	release := make(chan struct{})
	var order []int // written by the helper only, read after Wait
	l.do(gemmJob{run: func(gemmJob) { <-release }})
	for i := 0; i < laneDepth; i++ { // a full queue behind the blocked job
		l.do(gemmJob{run: func(gemmJob) { order = append(order, i) }})
	}
	close(release) // queuing returned while the first job was blocked
	l.Wait()
	if len(order) != laneDepth {
		t.Fatalf("%d of %d jobs ran before Wait returned", len(order), laneDepth)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("lane ran jobs in order %v", order)
		}
	}
	if held := gemmPool.inKernels.Load(); held != 0 || !helpersIdle() {
		t.Errorf("after Wait: %d cores counted, helpers idle %v", held, helpersIdle())
	}

	l.Open() // empty
	l.Wait()
	l.Wait() // closed
	var nilLane *Lane
	ran := false
	nilLane.do(gemmJob{run: func(gemmJob) { ran = true }})
	if !ran || gemmPool.inKernels.Load() != 0 {
		t.Errorf("nil lane: job ran %v, %d cores counted", ran, gemmPool.inKernels.Load())
	}
}

// TestEachUsesIdleHelper: with a core free, Each runs two tasks at once
// — each waits for the other to start — and every index exactly once.
func TestEachUsesIdleHelper(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	ensureHelpers(1)
	var arrived atomic.Int32
	Each(2, func(i int) {
		arrived.Add(1)
		for deadline := time.Now().Add(10 * time.Second); arrived.Load() < 2; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Errorf("task %d: the other never started; Each took no helper", i)
				return
			}
		}
	})
	const n = 1000
	var runs [n]atomic.Int32
	Each(n, func(i int) { runs[i].Add(1) })
	for i := range runs {
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if held := gemmPool.inKernels.Load(); held != 0 {
		t.Errorf("%d cores still counted", held)
	}
}
