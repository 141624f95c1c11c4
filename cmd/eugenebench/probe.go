package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// probe measures how fast the host is right now, with a kernel the
// benchmark owns: no change to the serving program can move it. The
// reference host is a two-vCPU microVM on a shared machine whose speed,
// for a plain arithmetic loop, moves by a tenth from minute to minute
// and by a fifth from one quarter of an hour to the next. The probe
// spins between every two windows, while the serving stack is idle, and
// each window's times are scaled by the probes on either side of it: a
// control measured inside the run, interleaved with what it controls
// for. bench/README.md has the record of what that buys.
//
// The kernel has the serving model's shape, one lane per CPU in use:
// matrix-vector products against 12 matrices of 256×256 float64, 6 MB a
// lane, like a worker's own clone of the weights.
type probe struct {
	lanes []probeLane
}

type probeLane struct {
	w    []float64 // probeMats matrices of probeDim × probeDim
	a, c []float64
}

const (
	probeMats = 12
	probeDim  = 256
)

func newProbe(lanes int) *probe {
	p := &probe{lanes: make([]probeLane, lanes)}
	for l := range p.lanes {
		ln := &p.lanes[l]
		ln.w = make([]float64, probeMats*probeDim*probeDim)
		ln.a = make([]float64, probeDim)
		ln.c = make([]float64, probeDim)
		// xorshift: the values only have to be finite and unequal.
		x := uint64(88172645463325252 + l)
		for i := range ln.w {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ln.w[i] = float64(int64(x%2001)-1000) / 16000
		}
		for i := range ln.a {
			ln.a[i] = float64(i%17) / 17
		}
	}
	return p
}

// chunk is one matrix-vector product against matrix m: 64k
// multiply-adds, about 50 µs.
func (ln *probeLane) chunk(m int) {
	w := ln.w[m*probeDim*probeDim : (m+1)*probeDim*probeDim]
	a := ln.a
	for j := 0; j < probeDim; j++ {
		b := w[j*probeDim : (j+1)*probeDim]
		var s0, s1, s2, s3 float64
		for k := 0; k+3 < probeDim; k += 4 {
			s0 += a[k] * b[k]
			s1 += a[k+1] * b[k+1]
			s2 += a[k+2] * b[k+2]
			s3 += a[k+3] * b[k+3]
		}
		ln.c[j] = s0 + s1 + s2 + s3
	}
}

// run spins every lane for d and returns the chunks per second over all
// lanes: what the host gives the process when it asks for every CPU.
func (p *probe) run(d time.Duration) float64 {
	var (
		wg    sync.WaitGroup
		total atomic.Int64
	)
	start := time.Now()
	end := start.Add(d)
	for l := range p.lanes {
		wg.Add(1)
		go func(ln *probeLane) {
			defer wg.Done()
			n := 0
			for time.Now().Before(end) {
				ln.chunk(n % probeMats)
				n++
			}
			total.Add(int64(n))
		}(&p.lanes[l])
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}
