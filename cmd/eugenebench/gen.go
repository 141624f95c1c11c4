package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Request kinds; closed-loop workloads only send kindBatch.
const (
	kindBatch = iota
	kindPinned
	kindAnon
	kindDecision
)

// request is one generated call: which pool rows it carries and, for an
// open loop, when it is due.
type request struct {
	due    time.Duration // offset from the start of its window
	kind   int
	device string
	rows   []int
	inputs [][]float64
}

// generator makes what a run sends, window by window, from the seed
// alone; it is called between windows, never while one is timed. The
// serving stack sees only these inputs.
type generator struct {
	w   *workload
	c   *corpus
	rng *rand.Rand
	// scale shrinks a window (the smoke test's are a tenth): an open
	// loop's length, a closed loop's number of calls.
	scale   float64
	order   []int // the pool in the seed's order; requests cycle through it
	next    int
	devices []string // open loop: the ids the schedule draws from
}

func newGenerator(w *workload, c *corpus, seed int64, scale float64) *generator {
	g := &generator{w: w, c: c, rng: rand.New(rand.NewSource(seed)), scale: scale}
	g.order = g.rng.Perm(len(c.pool))
	if w.open() {
		g.devices = make([]string, w.devices)
		for i := range g.devices {
			g.devices[i] = fmt.Sprintf("dev-%08x", g.rng.Uint32())
		}
	}
	return g
}

func (g *generator) take(n int) ([]int, [][]float64) {
	rows := make([]int, n)
	inputs := make([][]float64, n)
	for i := range rows {
		rows[i] = g.order[g.next%len(g.order)]
		inputs[i] = g.c.pool[rows[i]]
		g.next++
	}
	return rows, inputs
}

// window returns the next window's requests and, for an open loop, how
// long its schedule lasts. Every window of a workload offers the same
// number of calls of each kind, and so the same number of rows: what
// differs from window to window, and from seed to seed, is which rows,
// which devices, in which order and when.
func (g *generator) window() ([]request, time.Duration) {
	w := g.w
	if !w.open() {
		// A shrunk window still holds one bulk call.
		n := max(int(math.Round(float64(w.windowCalls)*g.scale)), w.bulkEvery, 1)
		reqs := make([]request, n)
		for i := range reqs {
			n := w.batch
			if w.bulkEvery > 0 && (i+1)%w.bulkEvery == 0 {
				n = w.bulk
			}
			reqs[i].kind = kindBatch
			reqs[i].rows, reqs[i].inputs = g.take(n)
		}
		return reqs, 0
	}
	// A Poisson process seen through a window with a known number of
	// arrivals: the arrival times are that many uniform draws, sorted.
	span := time.Duration(float64(window) * g.scale)
	n := int(math.Round(w.rate * span.Seconds()))
	kinds := make([]int, 0, n)
	for _, k := range []struct {
		kind  int
		share float64
	}{{kindPinned, w.mix.pinned}, {kindAnon, w.mix.anon}, {kindBatch, w.mix.batch}} {
		for i := int(math.Round(k.share * float64(n))); i > 0; i-- {
			kinds = append(kinds, k.kind)
		}
	}
	for len(kinds) < n { // the remainder: mix.decision
		kinds = append(kinds, kindDecision)
	}
	g.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = g.rng.Float64()
	}
	sort.Float64s(dues)
	reqs := make([]request, n)
	for i := range reqs {
		r := &reqs[i]
		r.due = time.Duration(dues[i] * float64(span))
		r.kind = kinds[i]
		switch r.kind {
		case kindPinned:
			r.device = g.devices[g.rng.Intn(len(g.devices))]
			r.rows, r.inputs = g.take(1)
		case kindAnon:
			r.rows, r.inputs = g.take(1)
		case kindBatch:
			r.rows, r.inputs = g.take(w.openBatch)
		default:
			r.device = g.devices[g.rng.Intn(len(g.devices))]
		}
	}
	return reqs, span
}
