package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"eugene/internal/failpoint"
)

// refEcho replays echoExec's deterministic per-stage function so stress
// tests can compute every task's expected answer without an executor.
func refEcho(input []float64, stages int) (pred int, conf float64) {
	h := append([]float64(nil), input...)
	for s := 0; s < stages; s++ {
		pred = int(h[0])
		conf = 0.4 + 0.1*float64(s) + 0.01*math.Mod(h[0], 7)
		h[0]++
	}
	return pred, conf
}

// checkConservation asserts the serving counters balance once every
// caller has its responses: nothing is left in the system, and every
// submitted task was either answered or expired unanswered.
func checkConservation(t *testing.T, l *Live) LiveStats {
	t.Helper()
	s := l.Stats()
	if s.QueueDepth != 0 {
		t.Errorf("stats %+v: queue depth %d after all clients finished", s, s.QueueDepth)
	}
	if s.Submitted != s.Answered+s.Unanswered {
		t.Errorf("stats %+v: submitted != answered + unanswered", s)
	}
	if s.Goodput > s.Answered {
		t.Errorf("stats %+v: goodput above answered", s)
	}
	return s
}

// TestLiveStress hammers an 8-worker executor with concurrent Submit
// and SubmitBatch callers using random stage counts, and checks every
// completed task's answer against the sequential reference. Run under
// -race this exercises the shared queue, tasks changing workers between
// stages, deadlines, and the task/buffer arenas at once.
func TestLiveStress(t *testing.T) {
	const (
		workers   = 8
		maxBatch  = 4
		clients   = 12
		perClient = 40
	)
	execs := make([]StageExecutor, workers)
	for i := range execs {
		execs[i] = &echoExec{}
	}
	l, err := NewLive(LiveConfig{Workers: workers, Deadline: time.Minute, QueueDepth: 512, MaxBatch: maxBatch},
		NewFIFO(), execs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	check := func(in []float64, stages int, r Response) error {
		if r.Expired || r.Stages != stages {
			return nil // deadline is a minute out; should not happen, caught below via stats
		}
		wantPred, wantConf := refEcho(in, stages)
		if r.Pred != wantPred || math.Abs(r.Conf-wantConf) > 1e-12 {
			t.Errorf("input %v stages %d: got (%d, %v), want (%d, %v)", in, stages, r.Pred, r.Conf, wantPred, wantConf)
		}
		return nil
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				stages := 1 + rng.Intn(3)
				if rng.Intn(3) == 0 {
					// Batched submission with a shared stage count.
					n := 1 + rng.Intn(9)
					inputs := make([][]float64, n)
					for j := range inputs {
						inputs[j] = []float64{float64(rng.Intn(100)), float64(c)}
					}
					resps, err := l.SubmitBatch(context.Background(), inputs, stages)
					if err != nil {
						errCh <- err
						return
					}
					for j, r := range resps {
						_ = check(inputs[j], stages, r)
					}
					continue
				}
				in := []float64{float64(rng.Intn(100)), float64(c)}
				r, err := l.Submit(context.Background(), in, stages)
				if err != nil {
					errCh <- err
					return
				}
				_ = check(in, stages, r)
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s := checkConservation(t, l)
	if s.Expired != 0 || s.Unanswered != 0 {
		t.Fatalf("stats %+v: tasks expired under a one-minute deadline", s)
	}
	if s.Answered != s.Submitted {
		t.Fatalf("stats %+v: answered != submitted", s)
	}
}

// TestLiveExpiryStress drives the same topology against a
// deadline most tasks cannot meet: every submission must still get
// exactly one response, per-task expiry must be reported through the
// Response, and the counters must balance.
func TestLiveExpiryStress(t *testing.T) {
	const workers = 8
	execs := make([]StageExecutor, workers)
	for i := range execs {
		execs[i] = &echoExec{delay: 3 * time.Millisecond}
	}
	l, err := NewLive(LiveConfig{Workers: workers, Deadline: 15 * time.Millisecond, QueueDepth: 512, MaxBatch: 8},
		NewFIFO(), execs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	var wg sync.WaitGroup
	const clients = 8
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < 10; i++ {
				n := 1 + rng.Intn(30)
				inputs := make([][]float64, n)
				for j := range inputs {
					inputs[j] = []float64{float64(rng.Intn(50))}
				}
				resps, err := l.SubmitBatch(context.Background(), inputs, 3)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if len(resps) != n {
					t.Errorf("client %d: %d responses for %d inputs", c, len(resps), n)
					return
				}
				for _, r := range resps {
					if !r.Expired && r.Stages != 3 {
						t.Errorf("client %d: non-expired task ran %d stages", c, r.Stages)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	checkConservation(t, l)
}

// TestLiveGreedyPlanOutlivesItsTasks runs Greedy-2 on two workers while
// callers submit singles and small batches under a deadline of about
// two stages, so tasks leave the queue before the plan reaches them:
// taken into the other worker's group, or expired and their records
// handed to the next call. Under -race it checks that the plan tells a
// task that left apart without reading the state its new owner writes.
func TestLiveGreedyPlanOutlivesItsTasks(t *testing.T) {
	const workers, clients, perClient = 2, 8, 60
	execs := make([]StageExecutor, workers)
	for i := range execs {
		execs[i] = &slowExec{delay: 200 * time.Microsecond}
	}
	l, err := NewLive(LiveConfig{Workers: workers, Deadline: 500 * time.Microsecond, QueueDepth: 64, MaxBatch: 4},
		NewGreedy(2, flatPriors(), "g2"), execs)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Stop()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if i%3 == 0 {
					if _, err := l.SubmitBatch(context.Background(), [][]float64{{float64(c)}, {float64(i)}}, 3); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					continue
				}
				if _, err := l.Submit(context.Background(), []float64{float64(c)}, 3); err != nil && !errors.Is(err, ErrUnanswered) {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	checkConservation(t, l)
}

// TestLiveSlowSiblingDoesNotStrandBatch holds one of two workers in a
// slow dispatch and submits a 64-row batch: the free worker must run
// every stage of every row without waiting for its sibling.
func TestLiveSlowSiblingDoesNotStrandBatch(t *testing.T) {
	const stall = 500 * time.Millisecond
	failpoint.DisableAll()
	failpoint.ResetCounts()
	if err := failpoint.Enable("sched.dispatch", "1*delay("+stall.String()+")"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()

	l, execs := newEchoLive(t, 2, 0, time.Minute, 0)
	// The decoy's first dispatch takes the failpoint's one firing and
	// holds its worker for the stall.
	decoy := make(chan error, 1)
	go func() {
		_, err := l.Submit(context.Background(), []float64{0}, 1)
		decoy <- err
	}()
	for failpoint.Counts()["sched.dispatch"] == 0 {
		time.Sleep(time.Millisecond)
	}

	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = []float64{float64(i)}
	}
	start := time.Now()
	resps, err := l.SubmitBatch(context.Background(), inputs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= stall {
		t.Fatalf("batch took %v: it waited out the sibling's %v stall", took, stall)
	}
	select {
	case err := <-decoy:
		t.Fatalf("decoy returned (%v) before the batch: no worker was held", err)
	default:
	}
	for i, r := range resps {
		wantPred, wantConf := refEcho(inputs[i], 3)
		if r.Expired || r.Stages != 3 || r.Pred != wantPred || math.Abs(r.Conf-wantConf) > 1e-12 {
			t.Errorf("row %d: %+v, want 3 stages, (%d, %v)", i, r, wantPred, wantConf)
		}
	}
	// One executor ran the whole batch; the other has yet to see a row.
	var rows [2]int
	for w, ex := range execs {
		e := ex.(*echoExec)
		e.mu.Lock()
		for _, n := range e.batches {
			rows[w] += n
		}
		e.mu.Unlock()
	}
	if rows != [2]int{3 * 64, 0} && rows != [2]int{0, 3 * 64} {
		t.Fatalf("rows run per worker %v, want all %d on one", rows, 3*64)
	}
	if err := <-decoy; err != nil {
		t.Fatal(err)
	}
	checkConservation(t, l)
}
