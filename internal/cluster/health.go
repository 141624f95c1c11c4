package cluster

import (
	"sync"
	"time"
)

// health is one node's failure detector. Two signal sources feed it:
// active /v1/readyz probes on a fixed cadence, and passive outcomes of
// proxied requests (a node that times out under real traffic is down
// no matter what its last probe said). FailThreshold consecutive
// failures eject the node from routing; while ejected the prober keeps
// running half-open — no traffic, probes only — and reinstateThreshold
// consecutive probe successes readmit it. The asymmetry is deliberate:
// ejection must be fast (every failed request is a user-visible error),
// reinstatement must be conservative (a flapping node readmitted too
// eagerly resets its devices' rendezvous assignment back and forth).
type health struct {
	failThreshold      int
	reinstateThreshold int

	mu          sync.Mutex
	healthyFlag bool
	consecFails int
	consecOKs   int
	ejections   uint64
	lastErr     string
	lastChange  time.Time
}

func newHealth(failThreshold, reinstateThreshold int) *health {
	return &health{
		failThreshold:      failThreshold,
		reinstateThreshold: reinstateThreshold,
		healthyFlag:        true,
		lastChange:         time.Now(),
	}
}

// healthy reports whether the node currently receives traffic.
func (h *health) healthy() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.healthyFlag
}

// onSuccess records a successful probe or proxied request. Returns true
// when this success reinstated an ejected node.
func (h *health) onSuccess() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFails = 0
	if h.healthyFlag {
		return false
	}
	h.consecOKs++
	if h.consecOKs < h.reinstateThreshold {
		return false
	}
	h.healthyFlag = true
	h.consecOKs = 0
	h.lastErr = ""
	h.lastChange = time.Now()
	return true
}

// onFailure records a failed probe or proxied request. Returns true
// when this failure ejected a healthy node.
func (h *health) onFailure(err error) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecOKs = 0
	if err != nil {
		h.lastErr = err.Error()
	}
	if !h.healthyFlag {
		return false
	}
	h.consecFails++
	if h.consecFails < h.failThreshold {
		return false
	}
	h.healthyFlag = false
	h.ejections++
	h.lastChange = time.Now()
	return true
}

// snapshot reads the detector state for status reporting.
func (h *health) snapshot() (healthy bool, consecFails int, ejections uint64, lastErr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.healthyFlag, h.consecFails, h.ejections, h.lastErr
}
