package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// call is the record of one request: times are offsets from the start
// of its window.
type call struct {
	due, start, end time.Duration
	kind            int
	rows            int // rows offered
	met             int // rows answered before the service's deadline and within the limit
	correct         int // rows whose pred equals the label
	wrong           int // rows that differ from the reference answer
	refused, failed bool
	traced          bool // sent while the tracer was recording
}

// latency is timed from the due time: for a closed loop that is the
// send time, for an open loop it counts the wait a stall imposes.
func (c *call) latency() time.Duration { return c.end - c.due }

// driver sends a window's requests into a stack and scores every answer
// against the oracle.
type driver struct {
	st *stack
	o  *oracle
	tr *tracer

	failMu    sync.Mutex
	firstFail error // the first failed call's error, for the report
}

func (d *driver) noteFailure(err error) {
	d.failMu.Lock()
	if d.firstFail == nil {
		d.firstFail = err
	}
	d.failMu.Unlock()
}

// do sends one request, blocking until it is answered, and scores it.
func (d *driver) do(ctx context.Context, t0 time.Time, r *request, buf *[]answer) call {
	c := call{due: r.due, kind: r.kind, rows: len(r.rows)}
	start := time.Now()
	c.start = start.Sub(t0)
	c.traced = d.tr.active(start)
	if !d.st.w.open() {
		c.due = c.start
	}
	var err error
	switch r.kind {
	case kindBatch:
		*buf, err = d.st.inferBatch(ctx, r.inputs, *buf)
	case kindDecision:
		_, err = d.st.client.CacheDecision(ctx, r.device)
		err = classify(err)
	default:
		var a answer
		a, err = d.st.infer(ctx, r.device, r.inputs[0])
		*buf = append((*buf)[:0], a)
	}
	end := time.Now()
	c.end = end.Sub(t0)
	d.tr.span("call", start, end)
	switch {
	case err == errRefused:
		c.refused = true
		return c
	case err != nil:
		c.failed = true
		d.noteFailure(err)
		return c
	case r.kind != kindDecision && len(*buf) != len(r.rows):
		c.failed = true
		d.noteFailure(fmt.Errorf("%d answers for %d rows", len(*buf), len(r.rows)))
		return c
	}
	inLimit := c.latency() <= d.st.w.limit
	for i, row := range r.rows {
		v := d.o.check(row, (*buf)[i])
		if v.wrong {
			c.wrong++
		}
		if v.inTime && inLimit {
			c.met++
		}
		if v.correct {
			c.correct++
		}
	}
	return c
}

// closed runs the workload's callers over reqs: each sends the next
// unsent request when its previous one returns. It returns the calls
// and how long the window took, first send to last answer.
func (d *driver) closed(ctx context.Context, reqs []request, _ time.Duration) ([]call, time.Duration) {
	var next atomic.Int64
	calls := make([]call, len(reqs))
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < d.st.w.callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []answer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				calls[i] = d.do(ctx, t0, &reqs[i], &buf)
				if calls[i].refused {
					// A refused caller backs off, as Retry-After asks,
					// instead of spinning on the refusal.
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	return calls, time.Since(t0)
}

// open releases each request at its due time, whatever the state of the
// earlier ones, and waits for all of them. The window lasts as long as
// its schedule, span, whenever the last answer arrives.
func (d *driver) open(ctx context.Context, reqs []request, span time.Duration) ([]call, time.Duration) {
	// Sized to the number of sends: the dispatcher must never block on a
	// busy system, or the loop would close.
	queue := make(chan int, len(reqs))
	calls := make([]call, len(reqs))
	t0 := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < openSenders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []answer
			for i := range queue {
				calls[i] = d.do(ctx, t0, &reqs[i], &buf)
			}
		}()
	}
	for i := range reqs {
		if wait := reqs[i].due - time.Since(t0); wait > 0 {
			time.Sleep(wait)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return calls, span
}
