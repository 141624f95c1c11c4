package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Intra-op parallelism: a GEMM splits its rows over helper goroutines
// only when the split pays for itself and the cores are free to take it.
//
//   - Size. Every chunk is at least gemmGrain mul-adds, so a product
//     under two grains runs inline on its caller without touching the
//     pool. That covers every GEMM of the serving path: the scheduler
//     already shares the cores by handing stages of ≤ MaxBatch rows to
//     its workers, and one wake-up per stage is cheaper than one per
//     GEMM.
//   - Occupancy. The limit caps the goroutines inside over-grain
//     products, callers and helpers together. A caller takes helpers
//     only for the cores no other such product holds at that moment,
//     and only helpers that are idle; it never queues a chunk. Callers
//     are never held back, so c of them at once run max(limit, c)
//     goroutines (one that arrives while another's helpers are
//     mid-chunk adds itself on top until those chunks end). Products
//     under two grains are not counted: they finish within a chunk's
//     time, and counting them would put a shared cache line on every
//     matvec.
const (
	// gemmGrain is the least work, in mul-adds, worth a chunk of its
	// own. BenchmarkMatMulTFanOut (rows × 256 × 256, serial against a
	// forced two-way split on two cores, medians of three): at 64 rows,
	// 2 M mul-adds per chunk, the split loses (f64 268 → 284 µs, f32 142
	// → 158); at 128 rows, 4 M per chunk, it wins in one precision and
	// loses in the other (548 → 440, 252 → 298); at 256 rows, 8 M per
	// chunk, it wins in both (1081 → 717, 553 → 473) and keeps winning
	// above (4096 rows: 15.4 → 9.8 ms, 9.5 → 5.7 ms).
	gemmGrain = 1 << 23
	// maxParallelism bounds the pool (sanity cap, not a tuning knob).
	maxParallelism = 256
)

// gemmJob is one row range of one product. It travels by value, and run
// is a package-level function, never a closure, so handing a chunk to a
// helper allocates nothing.
type gemmJob struct {
	run             func(gemmJob)
	dst, a, b       *Matrix
	dst32, a32, b32 *Matrix32
	bias            []float64
	bias32          []float32
	relu            bool
	transA          bool // runProduct64: aᵀ·b rather than a·b
	lo, hi          int
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
	// inKernels counts the goroutines inside over-grain products:
	// callers, plus the helpers they reserved.
	inKernels atomic.Int32
	started   atomic.Int32
	mu        sync.Mutex
	// idle holds the helpers nobody has taken; its capacity is the most
	// helpers that can ever exist, so putting one back never blocks.
	idle chan *gemmHelper
}

func init() {
	// Default to one goroutine per schedulable core, like a BLAS:
	// explicit SetParallelism overrides. Helpers spawn lazily on the
	// first product that splits, so merely importing tensor starts
	// nothing.
	gemmPool.limit.Store(int32(min(runtime.GOMAXPROCS(0), maxParallelism)))
	gemmPool.idle = make(chan *gemmHelper, maxParallelism)
}

// SetParallelism caps how many goroutines may run inside large kernels
// at once, across all callers (see the policy at the top of this file);
// callers are never blocked, so more concurrent callers than n simply
// all run inline. n ≤ 0 selects 1 (no helpers). The setting is
// process-wide; lowering it leaves the surplus helpers idle (a few KB
// each).
func SetParallelism(n int) {
	gemmPool.limit.Store(int32(max(1, min(n, maxParallelism))))
}

// Parallelism returns the current intra-op parallelism limit.
func Parallelism() int { return int(gemmPool.limit.Load()) }

// gemmChunks is the fan-out rule: how many chunks a rows-high product
// of muladds mul-adds is split into when free cores (the caller's
// included) are not running over-grain kernels. Each chunk is at least
// a grain and at least a register tile.
func gemmChunks(rows, muladds, free int) int {
	return max(1, min(muladds/gemmGrain, rows/denseRowTile, free))
}

// fanOut runs j over rows [0, rows), split by gemmChunks.
//
//eugene:noalloc
func fanOut(j gemmJob, rows, muladds int) {
	if gemmChunks(rows, muladds, maxParallelism) == 1 {
		j.lo, j.hi = 0, rows
		j.run(j)
		return
	}
	// Reserve the caller's core and the helpers' in one step, so two
	// callers arriving together cannot both take the last free core.
	var n int32
	for {
		held := gemmPool.inKernels.Load()
		n = int32(gemmChunks(rows, muladds, int(gemmPool.limit.Load()-held)))
		if gemmPool.inKernels.CompareAndSwap(held, held+n) {
			break
		}
	}
	parallelRows(j, rows, int(n))
	gemmPool.inKernels.Add(-n)
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

// idleHelper takes a helper that is idle now, or returns nil.
func idleHelper() *gemmHelper {
	select {
	case h := <-gemmPool.idle:
		return h
	default:
		return nil
	}
}

// parallelRows runs j over rows [0, rows) in up to n chunks: one per
// idle helper it can take, the first on the caller. Chunks begin on
// register-tile boundaries so that no chunk but the last runs a ragged
// tile; the result is the serial one bit for bit wherever they begin,
// because the kernel reduces a row the same way in any tile. With no
// helper idle the caller runs the whole range. Both precisions fan out
// through here.
//
//eugene:noalloc
func parallelRows(j gemmJob, rows, n int) {
	tiles := (rows + denseRowTile - 1) / denseRowTile
	n = min(n, tiles)
	ensureHelpers(n - 1)
	var taken *gemmHelper
	k := 1 // chunks: the caller's, and one per helper taken
	for ; k < n; k++ {
		h := idleHelper()
		if h == nil {
			break
		}
		h.next, taken = taken, h
	}
	// Chunk i of k covers tiles [i·tiles/k, (i+1)·tiles/k).
	i := 1
	for h := taken; h != nil; h = h.next {
		j.lo, j.hi = i*tiles/k*denseRowTile, min((i+1)*tiles/k*denseRowTile, rows)
		h.job <- j
		i++
	}
	j.lo, j.hi = 0, min(tiles/k*denseRowTile, rows)
	j.run(j)
	for h := taken; h != nil; {
		<-h.done
		next := h.next
		h.next = nil
		gemmPool.idle <- h
		h = next
	}
}
