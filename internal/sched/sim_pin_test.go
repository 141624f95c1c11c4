package sched

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"eugene/internal/gp"
)

// syntheticGP is the GP predictor of syntheticSource at decay 0.6, built
// from its exact curves (c_b = 1 − (1 − c_a)·0.6^(b−a), priors the means
// over a uniform difficulty) rather than fitted, so that no kernel path
// can move its bits.
func syntheticGP(t testing.TB) *GPPredictor {
	t.Helper()
	line := func(gap int) *gp.PiecewiseLinear {
		f := 1.0
		for i := 0; i < gap; i++ {
			f *= 0.6
		}
		return &gp.PiecewiseLinear{Knots: []float64{0, 1}, Vals: []float64{1 - f, 1}}
	}
	p, err := RestoreGPPredictor([]float64{0.5, 0.7, 0.82}, [][]*gp.PiecewiseLinear{
		{nil, line(1), line(2)}, {nil, nil, line(1)}, {nil, nil, nil}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// outcomeDigest hashes outcomes in the order they were finalized.
func outcomeDigest(outcomes []TaskOutcome) string {
	h := sha256.New()
	for _, o := range outcomes {
		fmt.Fprintf(h, "%d %s %d %t %t %t %d\n", o.ID, o.Class, o.Stages, o.Correct, o.Answered, o.Expired, o.Latency)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSimulatePinned pins every outcome of small closed-loop runs in
// which deadlines bite — three workers, StageCost 7, Deadline 40, so that
// tasks expire queued and in flight and their replacements arrive
// mid-run — as a digest of all of them in the order they were finalized,
// plus the first four in full. The values were recorded from the event
// loop Simulate had before it drove the scheduler core, which the core
// reproduces but for one case, marked below, and re-recorded once when
// the core came to decide expiry from the clock alone: a queued task due
// at a tick is now answered by the first sweep at that tick, in queue
// order, where a flag set by its own deadline event answered it in
// arrival order. The outcomes are the same ones; only their order within
// a tick moved, and it moved six of the ten digests.
func TestSimulatePinned(t *testing.T) {
	for _, tc := range []struct {
		concurrency int
		policy      string
		digest      string
		first       []TaskOutcome
	}{
		{6, "Greedy-1", "c6e4fd55957097c79f9dea19e75647fdf68511164b9acde4605acb76f982a204", []TaskOutcome{{ID: 3, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 28}, {ID: 5, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 28}, {ID: 2, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 4, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}}},
		{6, "Greedy-2", "51ae2ff624a9631d26c1d89f20563848d352afc9c6015fd150516e89a0586dc8", []TaskOutcome{{ID: 3, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 28}, {ID: 2, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 5, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 4, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}}},
		// Re-recorded once (was 382b0038…): the DC predictor gives a
		// task one stage in exactly the prior slope, so such tasks tie, and
		// the core offers candidates stage by stage where the old loop
		// offered them in arrival order.
		{6, "DC-2", "64a2f13e154c589a5b20f1bed0f4c092bc97d768e84e165a46b42e64c730400d", []TaskOutcome{{ID: 2, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 28}, {ID: 3, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 4, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 0, Stages: 2, Correct: true, Answered: true, Expired: true, Latency: 40}}},
		{6, "RR", "33e60126d456aa5a7bc968a5d8e242587769a1dea43ecea02f63f8000af5666e", []TaskOutcome{{ID: 0, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 1, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 2, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 3, Stages: 2, Correct: false, Answered: true, Expired: true, Latency: 40}}},
		{6, "FIFO", "52cc27c2b20600c7c42516f539a721886199534ef39b8528d86096dafd5ccceb", []TaskOutcome{{ID: 0, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 21}, {ID: 1, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 21}, {ID: 2, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 21}, {ID: 3, Stages: 2, Correct: false, Answered: true, Expired: true, Latency: 40}}},
		{9, "Greedy-1", "57e2b2b9ed460c901ac273a924580453261ffacaa6d5bf70064f2d5bf25415f6", []TaskOutcome{{ID: 3, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 8, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 0, Stages: 1, Correct: true, Answered: true, Expired: true, Latency: 40}, {ID: 1, Stages: 1, Correct: true, Answered: true, Expired: true, Latency: 40}}},
		{9, "Greedy-2", "b49ea6359284df0f311016066370b846d1f66f9c12ae120ef7cc0b0407f44a20", []TaskOutcome{{ID: 3, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 8, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 0, Stages: 1, Correct: true, Answered: true, Expired: true, Latency: 40}, {ID: 1, Stages: 1, Correct: true, Answered: true, Expired: true, Latency: 40}}},
		{9, "DC-2", "656451f6444f128c40c74ad78860c41a40c2f63da18ec9f70714c5e569d34177", []TaskOutcome{{ID: 2, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 35}, {ID: 6, Stages: 1, Correct: false, Answered: true, Expired: true, Latency: 40}, {ID: 7, Stages: 1, Correct: false, Answered: true, Expired: true, Latency: 40}, {ID: 8, Stages: 1, Correct: false, Answered: true, Expired: true, Latency: 40}}},
		{9, "RR", "344957579a9fe1baab7b307c7c6aa24ccbade44b2b3a3c6ae6ae098d7f88a030", []TaskOutcome{{ID: 0, Stages: 2, Correct: true, Answered: true, Expired: true, Latency: 40}, {ID: 1, Stages: 2, Correct: true, Answered: true, Expired: true, Latency: 40}, {ID: 2, Stages: 2, Correct: true, Answered: true, Expired: true, Latency: 40}, {ID: 3, Stages: 2, Correct: false, Answered: true, Expired: true, Latency: 40}}},
		{9, "FIFO", "acee45b85eb8a30033eddad6b8125394bb5e3f0c2e554939b5d7de26a01a32ec", []TaskOutcome{{ID: 0, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 21}, {ID: 1, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 21}, {ID: 2, Stages: 3, Correct: true, Answered: true, Expired: false, Latency: 21}, {ID: 6, Stages: 0, Correct: false, Answered: false, Expired: true, Latency: 40}}},
	} {
		t.Run(fmt.Sprintf("%s/N=%d", tc.policy, tc.concurrency), func(t *testing.T) {
			var p Policy
			switch tc.policy {
			case "Greedy-1":
				p = NewGreedy(1, syntheticGP(t), tc.policy)
			case "Greedy-2":
				p = NewGreedy(2, syntheticGP(t), tc.policy)
			case "DC-2":
				p = NewGreedy(2, flatPriors(), tc.policy)
			case "RR":
				p = NewRoundRobin()
			case "FIFO":
				p = NewFIFO()
			}
			cfg := SimConfig{Workers: 3, Concurrency: tc.concurrency, TotalTasks: 10 * tc.concurrency, StageCost: 7, Deadline: 40}
			src := &syntheticSource{rng: rand.New(rand.NewSource(4)), decay: 0.6}
			m, err := Simulate(cfg, p, src.Next)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Outcomes[:len(tc.first)]; !slices.Equal(got, tc.first) {
				t.Errorf("first outcomes\n got %+v\nwant %+v", got, tc.first)
			}
			if got := outcomeDigest(m.Outcomes); got != tc.digest {
				t.Errorf("outcome digest %s, want %s", got, tc.digest)
			}
		})
	}
}
