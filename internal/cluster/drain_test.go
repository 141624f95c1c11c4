package cluster

import (
	"testing"
	"time"

	"eugene/internal/service"
)

func drainSample(goodput uint64, depth int) map[string]service.ModelStats {
	return map[string]service.ModelStats{"m": {Goodput: goodput, QueueDepth: depth}}
}

func TestDrainEstimatorFloorTracksBacklog(t *testing.T) {
	d := &drainEstimator{}
	if f := d.Floor(); f != 0 {
		t.Fatalf("floor before any sample = %v; want 0", f)
	}
	d.Observe(drainSample(0, 100))
	if f := d.Floor(); f != 0 {
		t.Fatalf("floor after one sample = %v; want 0 (no rate yet)", f)
	}
	// Second sample 100ms later with 50 more answers: ~500/s drain rate,
	// 100 queued -> floor around 200ms. Observe uses wall time, so allow
	// a broad band.
	time.Sleep(100 * time.Millisecond)
	d.Observe(drainSample(50, 100))
	f := d.Floor()
	if f <= 0 || f > 2*time.Second {
		t.Fatalf("floor = %v; want a positive sub-2s estimate for 100 queued at ~500/s", f)
	}
}

func TestDrainEstimatorEmptyQueueNeedsNoWait(t *testing.T) {
	d := &drainEstimator{}
	d.Observe(drainSample(0, 50))
	time.Sleep(20 * time.Millisecond)
	d.Observe(drainSample(100, 0))
	if f := d.Floor(); f != 0 {
		t.Fatalf("floor with empty queue = %v; want 0", f)
	}
}

func TestDrainEstimatorStalledReplicaCapsAtMaxFloor(t *testing.T) {
	d := &drainEstimator{}
	d.Observe(drainSample(100, 500))
	time.Sleep(20 * time.Millisecond)
	// Goodput frozen, queue full: the replica is stalled.
	d.Observe(drainSample(100, 500))
	if f := d.Floor(); f != maxFloor {
		t.Fatalf("floor for stalled replica = %v; want maxFloor (%v)", f, maxFloor)
	}
}

func TestDrainEstimatorFloorNeverExceedsCap(t *testing.T) {
	d := &drainEstimator{}
	d.Observe(drainSample(0, 1_000_000))
	time.Sleep(20 * time.Millisecond)
	d.Observe(drainSample(1, 1_000_000)) // ~50/s rate, hours of backlog
	if f := d.Floor(); f != maxFloor {
		t.Fatalf("floor = %v; want capped at maxFloor (%v)", f, maxFloor)
	}
}
