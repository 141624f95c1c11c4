package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// overGrainRows × 256 × 256 is eight grains: MatMulT splits it whenever
// the limit and the pool's occupancy allow.
const overGrainRows = 1024

// gemmOperands returns a rows×k and an n×k operand pair in both
// precisions, holding the same values.
func gemmOperands(seed int64, rows, n, k int) (a, b *Matrix, a32, b32 *Matrix32) {
	rng := rand.New(rand.NewSource(seed))
	a32, a = randMat[float32](rng, rows, k)
	b32, b = randMat[float32](rng, n, k)
	return a, b, a32, b32
}

// TestGemmChunks pins the fan-out rule at the shapes that matter.
func TestGemmChunks(t *testing.T) {
	type shape struct{ rows, n, k int }
	// The serving model of cmd/eugenebench at MaxBatch 64: dim 32,
	// hidden 256, head bottlenecks 8/12/0, 10 classes.
	serving := []shape{
		{64, 256, 32}, {64, 256, 256}, // input projection, block layers
		{64, 8, 256}, {64, 10, 8}, {64, 12, 256}, {64, 10, 12}, {64, 10, 256}, // heads
	}
	for _, s := range serving {
		for _, free := range []int{1, 2, 8, maxParallelism} {
			if got := gemmChunks(s.rows, s.rows*s.n*s.k, free); got != 1 {
				t.Errorf("serving GEMM %v with %d cores free: %d chunks, want 1", s, free, got)
			}
		}
	}
	const big = 4096 * 256 * 256
	for _, tc := range []struct {
		name                string
		rows, muladds, free int
		want                int
	}{
		{"large product, idle pool, limit 2", 4096, big, 2, 2},
		{"large product, idle pool, limit 8", 4096, big, 8, 8},
		{"large product, limit 1 or every other core in kernels", 4096, big, 1, 1},
		{"large product, more callers than cores", 4096, big, -1, 1},
		{"large product, one core of four free besides the caller's", 4096, big, 2, 2},
		{"chunks stay a grain each", 512, 512 * 256 * 256, 8, 4},
		{"just under two grains", 255, 255 * 256 * 256, 8, 1},
		{"two grains", 256, 256 * 256 * 256, 8, 2},
		{"chunks stay a register tile each", 9, 9 * 4096 * 4096, 8, 3},
	} {
		if got := gemmChunks(tc.rows, tc.muladds, tc.free); got != tc.want {
			t.Errorf("%s: %d chunks, want %d", tc.name, got, tc.want)
		}
	}
}

// TestParallelRowsMatchesSerial pins the row-partitioned GEMMs, MatMulT
// and Dense, to their serial kernels in both precisions. A row's result
// does not depend on the rows around it (TestDenseIsBatchInvariant), so
// results must be bitwise identical, not merely close. The shapes are
// under the grain, so the split is forced by calling parallelRows
// directly.
func TestParallelRowsMatchesSerial(t *testing.T) {
	check := func(name string, run, run32 func(gemmJob), a, b *Matrix, a32, b32 *Matrix32, m, n int) {
		t.Helper()
		want, want32 := NewMatrix(m, n), NewMatrix32(m, n)
		run(gemmJob{dst: want, a: a, b: b, hi: m})
		run32(gemmJob{dst32: want32, a32: a32, b32: b32, hi: m})
		for _, p := range []int{2, 3, 8} {
			got, got32 := NewMatrix(m, n), NewMatrix32(m, n)
			parallelRows(gemmJob{run: run, dst: got, a: a, b: b}, m, p)
			parallelRows(gemmJob{run: run32, dst32: got32, a32: a32, b32: b32}, m, p)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s f64 in %d chunks: dst[%d] = %v, want %v", name, p, i, got.Data[i], want.Data[i])
				}
				if got32.Data[i] != want32.Data[i] {
					t.Fatalf("%s f32 in %d chunks: dst[%d] = %v, want %v", name, p, i, got32.Data[i], want32.Data[i])
				}
			}
		}
	}
	for _, s := range []struct{ m, n, k int }{
		{64, 96, 128}, // tile-aligned rows
		{61, 96, 128}, // ragged row tail inside the last chunk
		{128, 40, 64}, // wide batch, small output
		{9, 257, 129}, // odd everything, fewer tiles than helpers
		{64, 64, 48},  // 16-lane f32 kernel with a scalar tail
	} {
		a, b, a32, b32 := gemmOperands(11, s.m, s.n, s.k)
		_, w, _, w32 := gemmOperands(12, 0, s.k, s.n) // k×n: Dense's weights
		name := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		check("MatMulT "+name, runMatMulT64, runMatMulT32, a, b, a32, b32, s.m, s.n)
		check("Dense "+name, runDense64, runDense32, a, w, a32, w32, s.m, s.n)
	}
}

// TestMatMulTOverGrainMatchesSerial sends one product through the
// public entry points that the rule does split.
func TestMatMulTOverGrainMatchesSerial(t *testing.T) {
	defer SetParallelism(Parallelism())
	const m, n, k = overGrainRows + 3, 256, 256
	a, b, a32, b32 := gemmOperands(17, m, n, k)
	want, want32 := NewMatrix(m, n), NewMatrix32(m, n)
	runMatMulT64(gemmJob{dst: want, a: a, b: b, hi: m})
	runMatMulT32(gemmJob{dst32: want32, a32: a32, b32: b32, hi: m})
	for _, p := range []int{1, 2, 3, 8} {
		SetParallelism(p)
		got, got32 := NewMatrix(m, n), NewMatrix32(m, n)
		MatMulT(got, a, b)
		MatMulT32(got32, a32, b32)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] || got32.Data[i] != want32.Data[i] {
				t.Fatalf("parallelism %d: dst[%d] = %v / %v, want %v / %v", p, i, got.Data[i], got32.Data[i], want.Data[i], want32.Data[i])
			}
		}
	}
}

// TestParallelRowsConcurrent forces splits from competing goroutines
// (several scheduler workers sharing the helpers) and checks every
// result; with -race this also vets the hand-off.
func TestParallelRowsConcurrent(t *testing.T) {
	const m, n, k = 48, 64, 96
	a, b, _, _ := gemmOperands(13, m, n, k)
	want := NewMatrix(m, n)
	runMatMulT64(gemmJob{dst: want, a: a, b: b, hi: m})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := NewMatrix(m, n)
			for iter := 0; iter < 20; iter++ {
				parallelRows(gemmJob{run: runMatMulT64, dst: got, a: a, b: b}, m, 4)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Errorf("concurrent GEMM diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if held := gemmPool.inKernels.Load(); held != 0 {
		t.Errorf("%d goroutines still counted inside kernels", held)
	}
}

// blockingJob returns a job whose helper chunks report on entered and
// then wait for release; the caller's own chunk (the one from row 0)
// returns at once.
func blockingJob(helpers int) (j gemmJob, entered, release chan struct{}) {
	entered = make(chan struct{}, helpers)
	release = make(chan struct{})
	return gemmJob{run: func(j gemmJob) {
		if j.lo > 0 {
			entered <- struct{}{}
			<-release
		}
	}}, entered, release
}

// TestBusyHelperDoesNotStallOtherCallers holds the pool's helpers
// inside a chunk that does not end and then issues an over-grain
// product from another goroutine: it must run inline and return, not
// wait for a helper.
func TestBusyHelperDoesNotStallOtherCallers(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	ensureHelpers(1)
	helpers := int(gemmPool.started.Load()) // other tests may have started more

	block, entered, release := blockingJob(helpers)
	owner := make(chan struct{})
	go func() {
		defer close(owner)
		parallelRows(block, (helpers+1)*narrowTile, helpers+1)
	}()
	for i := 0; i < helpers; i++ {
		<-entered
	}

	const m, n, k = overGrainRows, 256, 256
	a, b, _, _ := gemmOperands(19, m, n, k)
	want, got := NewMatrix(m, n), NewMatrix(m, n)
	runMatMulT64(gemmJob{dst: want, a: a, b: b, hi: m})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		MatMulT(got, a, b)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Error("an over-grain product waited for a busy helper")
	}
	close(release)
	<-owner
	<-finished
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestOccupancyCapsHelpers holds both cores of a limit of two inside
// one caller's product and checks that a second caller's large product
// takes no helper although idle ones exist, and that the count of
// goroutines in kernels returns to zero.
func TestOccupancyCapsHelpers(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	ensureHelpers(2) // one for the first caller, one left idle

	block, entered, release := blockingJob(1)
	const rows, muladds = 4096, 4096 * 256 * 256
	owner := make(chan struct{})
	go func() {
		defer close(owner)
		fanOut(block, rows, muladds)
	}()
	<-entered
	if held := gemmPool.inKernels.Load(); held != 2 {
		t.Errorf("%d goroutines counted inside kernels, want the caller and its helper", held)
	}

	var chunks [][2]int // appended by the one goroutine that runs fanOut below
	fanOut(gemmJob{run: func(j gemmJob) { chunks = append(chunks, [2]int{j.lo, j.hi}) }}, rows, muladds)
	if len(chunks) != 1 || chunks[0] != [2]int{0, rows} {
		t.Errorf("second caller ran chunks %v, want [0, %d) inline", chunks, rows)
	}
	close(release)
	<-owner
	if held := gemmPool.inKernels.Load(); held != 0 {
		t.Errorf("%d goroutines still counted inside kernels", held)
	}
}

// TestFanOutAllocs is the dynamic half of //eugene:noalloc on MatMulT
// and MatMulT32 for a product that does split.
func TestFanOutAllocs(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(2)
	const m, n, k = overGrainRows, 256, 256
	a, b, a32, b32 := gemmOperands(23, m, n, k)
	dst, dst32 := NewMatrix(m, n), NewMatrix32(m, n)
	MatMulT(dst, a, b) // starts the helper
	if avg := testing.AllocsPerRun(20, func() { MatMulT(dst, a, b) }); avg != 0 {
		t.Errorf("MatMulT: %v allocs per fanned-out product, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { MatMulT32(dst32, a32, b32) }); avg != 0 {
		t.Errorf("MatMulT32: %v allocs per fanned-out product, want 0", avg)
	}
}

// BenchmarkMatMulTFanOut is the measurement gemmGrain cites: rows × 256
// × 256 in both precisions, serial (p=1) against a split forced over
// every core, whatever the rule would have decided.
func BenchmarkMatMulTFanOut(b *testing.B) {
	const n, k = 256, 256
	procs := runtime.GOMAXPROCS(0)
	for _, rows := range []int{32, 64, 128, 256, 512, 4096} {
		x, w, x32, w32 := gemmOperands(1, rows, n, k)
		for _, prec := range []struct {
			name string
			job  gemmJob
		}{
			{"f64", gemmJob{run: runMatMulT64, dst: NewMatrix(rows, n), a: x, b: w}},
			{"f32", gemmJob{run: runMatMulT32, dst32: NewMatrix32(rows, n), a32: x32, b32: w32}},
		} {
			for _, p := range []int{1, procs} {
				b.Run(fmt.Sprintf("%s/rows=%d/p=%d", prec.name, rows, p), func(b *testing.B) {
					b.ReportAllocs()
					parallelRows(prec.job, rows, p) // starts the helpers
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						parallelRows(prec.job, rows, p)
					}
				})
			}
		}
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
		l.do(gemmJob{lo: i, run: func(j gemmJob) { order = append(order, j.lo) }})
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
		l.do(gemmJob{lo: i, run: func(j gemmJob) { order = append(order, j.lo) }})
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
