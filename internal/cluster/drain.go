package cluster

import (
	"sync"
	"time"

	"eugene/internal/service"
)

// drainEstimator turns a replica's /v1/stats counters into the floor
// the router puts under the Retry-After it relays on a 429. The
// replica's own hint is clamped to a narrow band ([10ms, 2s]) because
// the scheduler computes it per request from a point-in-time forecast;
// the router, watching the same replica over time, can do better — it
// sees the cumulative goodput counter advance and therefore knows the
// replica's *actual* drain rate. The floor is the time the currently
// queued work needs to drain at that rate: retrying sooner than that
// is guaranteed to find the same full queue.
//
// The prober feeds it with Observe (each sample is one /v1/stats
// response; counters are summed across models) and relay reads Floor.
// All methods are safe for concurrent use.
type drainEstimator struct {
	mu          sync.Mutex
	lastGoodput uint64
	lastAt      time.Time
	havePrev    bool
	// ratePerSec is an EWMA of the observed goodput drain rate.
	ratePerSec float64
	haveRate   bool
	depth      int
}

const (
	// maxFloor caps the floor so a stalled replica cannot push waits to
	// infinity.
	maxFloor = 8 * time.Second
	// drainRateEWMA weights the newest rate sample.
	drainRateEWMA = 0.5
)

// Observe records one /v1/stats snapshot: cumulative goodput (summed
// over models) dates the drain-rate EWMA, queue depth sizes the
// backlog.
func (d *drainEstimator) Observe(stats map[string]service.ModelStats) {
	var goodput uint64
	depth := 0
	for _, st := range stats {
		goodput += st.Goodput
		depth += st.QueueDepth
	}
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.depth = depth
	if d.havePrev {
		dt := now.Sub(d.lastAt).Seconds()
		if dt > 0 && goodput >= d.lastGoodput {
			rate := float64(goodput-d.lastGoodput) / dt
			if d.haveRate {
				d.ratePerSec = drainRateEWMA*rate + (1-drainRateEWMA)*d.ratePerSec
			} else {
				d.ratePerSec = rate
				d.haveRate = true
			}
		}
	}
	d.lastGoodput = goodput
	d.lastAt = now
	d.havePrev = true
}

// Floor returns the adaptive backoff floor: the time the observed
// backlog needs to drain at the observed rate, capped at maxFloor.
// Zero until two samples have been observed (no rate yet) or while the
// queue is empty — an estimator with nothing to say must not delay
// retries.
func (d *drainEstimator) Floor() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.haveRate || d.depth == 0 {
		return 0
	}
	if d.ratePerSec <= 0 {
		// Work is queued and nothing has drained across the EWMA window:
		// the replica is stalled, so wait the full cap.
		return maxFloor
	}
	return min(time.Duration(float64(d.depth)/d.ratePerSec*float64(time.Second)), maxFloor)
}
