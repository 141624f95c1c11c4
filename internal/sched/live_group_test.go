package sched

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
)

// newIdleEchoLive starts workers echo executors at the default MaxBatch,
// each taking delay per dispatch, and waits until every worker waits for
// work.
func newIdleEchoLive(t *testing.T, workers int, delay time.Duration) (*Live, []StageExecutor) {
	t.Helper()
	l, execs := newEchoLive(t, workers, 0, time.Minute, delay)
	waitIdle(t, l, workers)
	return l, execs
}

// waitIdle waits until n workers wait for work.
func waitIdle(t *testing.T, l *Live, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		idle := l.idle
		l.mu.Unlock()
		if idle == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers idle after 5s", idle, n)
		}
	}
}

// groupsByStage lists the dispatch sizes of every executor at each of
// three stages, sorted.
func groupsByStage(execs []StageExecutor) [3][]int {
	var by [3][]int
	for _, ex := range execs {
		e := ex.(*echoExec)
		e.mu.Lock()
		for i, n := range e.batches {
			by[e.stages[i]] = append(by[e.stages[i]], n)
		}
		e.mu.Unlock()
	}
	for s := range by {
		slices.Sort(by[s])
	}
	return by
}

func rowsOf(n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{float64(i)}
	}
	return rows
}

// TestLiveLoneBatchSplitsOverIdleWorkers: one 64-row batch into two idle
// workers runs as 32 + 32 at every stage — each worker's survivors go
// back into the bucket it picks from in the same critical section, so
// neither folds the other's half into its next group.
func TestLiveLoneBatchSplitsOverIdleWorkers(t *testing.T) {
	l, execs := newIdleEchoLive(t, 2, 20*time.Millisecond)
	if _, err := l.SubmitBatch(context.Background(), rowsOf(64), 3); err != nil {
		t.Fatal(err)
	}
	for s, groups := range groupsByStage(execs) {
		if !slices.Equal(groups, []int{32, 32}) {
			t.Errorf("stage %d dispatched %v, want [32 32]", s, groups)
		}
	}
}

// TestLiveConcurrentBatchesTakeFullGroups: two callers' 64-row batches
// keep both workers busy, so a worker takes a whole bucket: many rows
// run in 64-row groups (62–98 % in runs on a 2-vCPU host; none at
// MaxBatch 32), and no group is larger.
func TestLiveConcurrentBatchesTakeFullGroups(t *testing.T) {
	l, execs := newIdleEchoLive(t, 2, 5*time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := l.SubmitBatch(context.Background(), rowsOf(64), 3); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	full, rows := 0, 0
	for _, groups := range groupsByStage(execs) {
		for _, n := range groups {
			if n > 64 {
				t.Fatalf("a group of %d rows exceeds MaxBatch 64", n)
			}
			if n == 64 {
				full += n
			}
			rows += n
		}
	}
	if rows != 2*10*64*3 {
		t.Fatalf("%d rows dispatched, want %d", rows, 2*10*64*3)
	}
	t.Logf("%d of %d rows in 64-row groups", full, rows)
	if 3*full < rows {
		t.Fatalf("%d of %d rows ran in 64-row groups, want at least a third", full, rows)
	}
}

// TestLiveGroupRule pins the core's group size, min(admission slack
// cap, MaxBatch, max(ceil(bucket ÷ (1 + idle)), MaxBatch/2)), on a queue
// built by hand: no worker runs, so every case is exact.
func TestLiveGroupRule(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		maxBatch, bucket, idle int
		slack                  float64 // admission on, slack in tasks' stage costs; 0 for off
		want                   int
	}{
		{"lone 64-row batch, a peer idle", 64, 64, 1, 0, 32},
		{"lone 64-row batch, peers busy", 64, 64, 0, 0, 64},
		{"two batches queued, a peer idle", 64, 128, 1, 0, 64},
		{"three idle peers share a batch, but not under MaxBatch/2", 64, 64, 3, 0, 32},
		{"a bucket over the cap", 64, 200, 0, 0, 64},
		{"queued singles, a peer idle: never split", 64, 5, 1, 0, 5},
		{"queued singles, three peers idle", 64, 32, 3, 0, 32},
		{"one single", 64, 1, 3, 0, 1},
		{"tight admission slack caps the group", 64, 64, 0, 10.5, 10},
		{"tight slack under the idle share", 64, 64, 1, 20.5, 20},
		{"MaxBatch 1 disables coalescing", 1, 64, 0, 0, 1},
		{"MaxBatch 1, a peer idle", 1, 64, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &queue{policy: NewFIFO(), maxBatch: tc.maxBatch}
			d := &testDriver{}
			if tc.slack > 0 {
				// An hour's deadline at an hour/slack a stage.
				d.stageCost = Ticks(float64(time.Hour) / tc.slack)
			}
			for i := 0; i < tc.bucket; i++ {
				q.push(queuedTask(i, nil, 0, Ticks(time.Hour)))
			}
			group, stage := q.pick(0, tc.idle, nil, d)
			if stage != 0 || len(group) != tc.want {
				t.Fatalf("picked %d tasks at stage %d, want %d at stage 0", len(group), stage, tc.want)
			}
			if left := q.buckets[0].n; left != tc.bucket-tc.want {
				t.Fatalf("%d tasks left queued, want %d", left, tc.bucket-tc.want)
			}
		})
	}
}

// TestLiveGroupKeepsBatchesApart pins whose rows a group takes, on a
// queue built by hand: the leader's batch-mates first, and rows of other
// submissions only while the group is under MaxBatch/2.
func TestLiveGroupKeepsBatchesApart(t *testing.T) {
	type part struct{ sub, rows int } // sub 0: that many single submissions
	for _, tc := range []struct {
		name  string
		queue []part
		want  []part // the group, by submission, in queue order
	}{
		{"half a batch ahead of a whole one", []part{{1, 32}, {2, 64}}, []part{{1, 32}}},
		{"a whole batch ahead of half a one", []part{{2, 64}, {1, 32}}, []part{{2, 64}}},
		{"a small remainder fills up", []part{{1, 16}, {2, 64}}, []part{{1, 16}, {2, 48}}},
		{"singles coalesce with a batch", []part{{0, 5}, {2, 64}}, []part{{0, 5}, {2, 59}}},
		{"singles coalesce", []part{{0, 40}}, []part{{0, 40}}},
		{"interleaved rows: only the leader's", []part{{1, 1}, {2, 1}, {1, 40}, {2, 40}}, []part{{1, 41}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := &queue{policy: NewFIFO(), maxBatch: 64}
			subs := submissions{}
			queued := 0
			for _, p := range tc.queue {
				for i := 0; i < p.rows; i++ {
					q.push(queuedTask(queued, subs.of(int64(p.sub)), 0, Ticks(time.Hour)))
					queued++
				}
			}
			group, _ := q.pick(0, 0, nil, &testDriver{})
			var got []part
			for _, task := range group {
				sub := 0
				for n, s := range subs {
					if s == task.sub {
						sub = int(n)
					}
				}
				if n := len(got); n > 0 && got[n-1].sub == sub {
					got[n-1].rows++
				} else {
					got = append(got, part{sub, 1})
				}
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("group %v, want %v", got, tc.want)
			}
			if left := q.buckets[0].n; left != queued-len(group) {
				t.Fatalf("%d tasks left queued, want %d", left, queued-len(group))
			}
		})
	}
}
