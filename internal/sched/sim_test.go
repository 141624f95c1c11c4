package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"eugene/internal/tensor"
)

// syntheticSource builds tasks whose confidence curves follow a simple
// deterministic model: each task has a hidden difficulty d in [0,1];
// stage s yields confidence 1−d·decay^s and is correct when confidence
// exceeds 0.5. This lets scheduler tests run without a neural network.
type syntheticSource struct {
	rng   *rand.Rand
	decay float64
}

func (s *syntheticSource) Next(id int) *Task {
	d := s.rng.Float64()
	label := 1
	t := &Task{Label: label, NumStages: 3}
	t.Run = func(stage int) StageResult {
		conf := 1 - d*math.Pow(s.decay, float64(stage))
		pred := 0
		if conf > 0.5 {
			pred = label
		}
		return StageResult{Pred: pred, Conf: conf}
	}
	return t
}

func flatPriors() *DCPredictor { return NewDCPredictor([]float64{0.7, 0.8, 0.87}) }

func TestSimConfigValidate(t *testing.T) {
	good := SimConfig{Workers: 2, Concurrency: 2, TotalTasks: 10, StageCost: 1, Deadline: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SimConfig{
		{Workers: 0, Concurrency: 1, TotalTasks: 1, StageCost: 1, Deadline: 5},
		{Workers: 1, Concurrency: 0, TotalTasks: 1, StageCost: 1, Deadline: 5},
		{Workers: 1, Concurrency: 1, TotalTasks: 0, StageCost: 1, Deadline: 5},
		{Workers: 1, Concurrency: 1, TotalTasks: 1, StageCost: 0, Deadline: 5},
		{Workers: 1, Concurrency: 1, TotalTasks: 1, StageCost: 10, Deadline: 5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestSimulateAllTasksFinalized(t *testing.T) {
	cfg := SimConfig{Workers: 2, Concurrency: 4, TotalTasks: 50, StageCost: 10, Deadline: 100}
	src := &syntheticSource{rng: rand.New(rand.NewSource(1)), decay: 0.5}
	m, err := Simulate(cfg, NewFIFO(), src.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Outcomes) != 50 {
		t.Fatalf("finalized %d tasks, want 50", len(m.Outcomes))
	}
	for _, o := range m.Outcomes {
		if o.Stages < 0 || o.Stages > 3 {
			t.Fatalf("task %d executed %d stages", o.ID, o.Stages)
		}
		if o.Latency < 0 {
			t.Fatalf("task %d latency %d", o.ID, o.Latency)
		}
	}
}

func TestSimulateGenerousBudgetRunsAllStages(t *testing.T) {
	// With ample workers and deadline every policy should run every
	// stage of every task.
	cfg := SimConfig{Workers: 8, Concurrency: 2, TotalTasks: 30, StageCost: 10, Deadline: 1000}
	for _, p := range []Policy{NewFIFO(), NewRoundRobin(), NewGreedy(1, flatPriors(), "greedy")} {
		src := &syntheticSource{rng: rand.New(rand.NewSource(2)), decay: 0.5}
		m, err := Simulate(cfg, p, src.Next)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if got := m.MeanStages(); got != 3 {
			t.Fatalf("%s: mean stages %v, want 3", p.Name(), got)
		}
		if m.ExpiredRate() != 0 {
			t.Fatalf("%s: expiries under generous budget", p.Name())
		}
	}
}

func TestSimulateDeadlineEnforced(t *testing.T) {
	// One worker, many tasks, tight deadline: most tasks must expire,
	// and none may report more stages than fit in the deadline.
	cfg := SimConfig{Workers: 1, Concurrency: 10, TotalTasks: 40, StageCost: 10, Deadline: 25}
	src := &syntheticSource{rng: rand.New(rand.NewSource(3)), decay: 0.5}
	m, err := Simulate(cfg, NewFIFO(), src.Next)
	if err != nil {
		t.Fatal(err)
	}
	maxStages := int(cfg.Deadline / cfg.StageCost)
	for _, o := range m.Outcomes {
		if o.Stages > 3 {
			t.Fatalf("task %d ran %d stages", o.ID, o.Stages)
		}
		if o.Latency > cfg.Deadline {
			t.Fatalf("task %d latency %d exceeds deadline %d", o.ID, o.Latency, cfg.Deadline)
		}
		if o.Stages > maxStages {
			t.Fatalf("task %d ran %d stages within deadline %d", o.ID, o.Stages, cfg.Deadline)
		}
	}
	if m.ExpiredRate() == 0 {
		t.Fatal("expected expiries under starvation")
	}
}

func TestSimulateDeterminism(t *testing.T) {
	cfg := SimConfig{Workers: 3, Concurrency: 6, TotalTasks: 60, StageCost: 7, Deadline: 40}
	run := func() []TaskOutcome {
		src := &syntheticSource{rng: rand.New(rand.NewSource(4)), decay: 0.6}
		m, err := Simulate(cfg, NewGreedy(2, flatPriors(), "g"), src.Next)
		if err != nil {
			t.Fatal(err)
		}
		return m.Outcomes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different outcome counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGreedyPrefersUnansweredTasks(t *testing.T) {
	// With budget for exactly one stage per task, the greedy policy
	// must give every task its first stage rather than deepening a few:
	// first-stage utility (prior − 0) dominates marginal gains.
	cfg := SimConfig{Workers: 2, Concurrency: 8, TotalTasks: 40, StageCost: 10, Deadline: 40}
	src := &syntheticSource{rng: rand.New(rand.NewSource(5)), decay: 0.5}
	m, err := Simulate(cfg, NewGreedy(1, flatPriors(), "g"), src.Next)
	if err != nil {
		t.Fatal(err)
	}
	if rate := m.UnansweredRate(); rate > 0.05 {
		t.Fatalf("greedy left %.2f of tasks unanswered", rate)
	}
}

func TestFIFOStrandsLateArrivals(t *testing.T) {
	// Same contention: FIFO runs whole tasks to completion, stranding
	// the back of the queue entirely.
	cfg := SimConfig{Workers: 2, Concurrency: 8, TotalTasks: 40, StageCost: 10, Deadline: 40}
	src := &syntheticSource{rng: rand.New(rand.NewSource(5)), decay: 0.5}
	m, err := Simulate(cfg, NewFIFO(), src.Next)
	if err != nil {
		t.Fatal(err)
	}
	if rate := m.UnansweredRate(); rate < 0.2 {
		t.Fatalf("FIFO unanswered rate %.2f, expected heavy stranding", rate)
	}
}

func TestGreedyBeatsFIFOUnderContention(t *testing.T) {
	cfg := SimConfig{Workers: 2, Concurrency: 10, TotalTasks: 100, StageCost: 10, Deadline: 50}
	run := func(p Policy) float64 {
		src := &syntheticSource{rng: rand.New(rand.NewSource(6)), decay: 0.5}
		m, err := Simulate(cfg, p, src.Next)
		if err != nil {
			t.Fatal(err)
		}
		return m.Accuracy()
	}
	greedy := run(NewGreedy(1, flatPriors(), "g"))
	fifo := run(NewFIFO())
	if greedy <= fifo {
		t.Fatalf("greedy %.3f should beat FIFO %.3f under contention", greedy, fifo)
	}
}

// policyQueue queues tasks in these states, in this order, in a core
// that runs p, and returns the core and the tasks.
func policyQueue(p Policy, states ...*TaskState) (*queue, []*liveTask) {
	q := &queue{policy: p, maxBatch: 1}
	tasks := make([]*liveTask, len(states))
	for i, st := range states {
		tasks[i] = &liveTask{state: *st}
	}
	q.push(tasks...)
	return q, tasks
}

// leaderIndex is the index in tasks of the core's policy's leader.
func leaderIndex(q *queue, tasks []*liveTask, now Ticks) int {
	return slices.Index(tasks, q.policy.leader(q, now))
}

// unqueue takes a task out of the core, as a dispatch would.
func unqueue(q *queue, t *liveTask) {
	b := &q.buckets[t.state.Executed]
	q.remove(b, t)
	b.update()
}

func TestRoundRobinCycles(t *testing.T) {
	now := Ticks(0)
	mk := func(id int) *TaskState {
		return &TaskState{Task: &Task{ID: id, NumStages: 3}, Deadline: 100}
	}
	q, tasks := policyQueue(NewRoundRobin(), mk(0), mk(1), mk(2))
	// Each leader runs a stage and is queued again, as after a commit.
	lead := func() int {
		group, _ := q.pick(now, 0, nil, &testDriver{})
		q.push(group...)
		return slices.Index(tasks, group[0])
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for step, w := range want {
		got := lead()
		if got != w {
			t.Fatalf("step %d: picked %d, want %d", step, got, w)
		}
	}
	// A task in flight is not among the candidates: the cycle goes on
	// past it.
	unqueue(q, tasks[0])
	if got := lead(); got != 1 {
		t.Fatalf("RR picked %d without task 0, want 1", got)
	}
}

func TestFIFOPicksOldest(t *testing.T) {
	q, tasks := policyQueue(NewFIFO(),
		&TaskState{Task: &Task{ID: 1, NumStages: 1}, Arrival: 10, Deadline: 100},
		&TaskState{Task: &Task{ID: 0, NumStages: 1}, Arrival: 5, Deadline: 100},
	)
	if got := leaderIndex(q, tasks, 0); got != 1 {
		t.Fatalf("FIFO picked index %d, want 1 (earlier arrival)", got)
	}
	// With the oldest in flight, and so not among the candidates, the
	// other is next.
	unqueue(q, tasks[1])
	if got := leaderIndex(q, tasks, 0); got != 0 {
		t.Fatalf("FIFO picked %d with oldest busy", got)
	}
}

func TestGreedyPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	NewGreedy(0, flatPriors(), "bad")
}

func TestDCPredictor(t *testing.T) {
	d := NewDCPredictor([]float64{0.5, 0.7, 0.8})
	if d.Prior(1) != 0.7 {
		t.Fatalf("prior = %v", d.Prior(1))
	}
	// Slope 0.1 per stage from (prev=0.6, cur=0.7) at stage 1.
	if got := d.Predict(1, 0.6, 0.7, 2); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("DC predict = %v, want 0.8", got)
	}
	// Two stages ahead: 0.7 + 2·0.1 = 0.9.
	if got := d.Predict(0, 0.6, 0.7, 2); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("DC predict two ahead = %v, want 0.9", got)
	}
	// Clamped at 1.
	if got := d.Predict(0, 0.1, 0.9, 2); got != 1 {
		t.Fatalf("DC predict should clamp, got %v", got)
	}
	// target ≤ last returns cur.
	if got := d.Predict(2, 0.6, 0.7, 2); got != 0.7 {
		t.Fatalf("DC predict same stage = %v", got)
	}
}

func TestDCPredictorFirstObservationUsesPriorSlope(t *testing.T) {
	// Regression: with a single observation, prev is the zero sentinel.
	// The slope must come from the prior curve (0.7 − 0.5 = 0.2 here),
	// not cur − 0, which would predict ≈ 2×cur at the next stage.
	d := NewDCPredictor([]float64{0.5, 0.7, 0.8})
	if got := d.Predict(0, 0, 0.45, 1); math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("DC first-observation predict = %v, want 0.65 (prior slope)", got)
	}
	// Two stages ahead from the first observation: 0.45 + 2·0.2 = 0.85.
	if got := d.Predict(0, 0, 0.45, 2); math.Abs(got-0.85) > 1e-12 {
		t.Fatalf("DC first-observation two ahead = %v, want 0.85", got)
	}
	// At the last stage with no prior slope available, prediction holds
	// flat instead of doubling.
	if got := d.Predict(2, 0, 0.6, 3); got != 0.6 {
		t.Fatalf("DC predict past prior curve = %v, want 0.6", got)
	}
	// A genuine second observation still uses the observed slope.
	if got := d.Predict(1, 0.6, 0.7, 2); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("DC observed-slope predict = %v, want 0.8", got)
	}
}

func TestGPPredictorFromCurves(t *testing.T) {
	// Build synthetic confidence curves: c2 = c1 + 0.1, c3 = c1 + 0.15.
	rng := rand.New(rand.NewSource(7))
	n := 120
	curves := tensor.NewMatrix(n, 3)
	for i := 0; i < n; i++ {
		c1 := 0.3 + rng.Float64()*0.6
		curves.Set(i, 0, c1)
		curves.Set(i, 1, math.Min(1, c1+0.1+rng.NormFloat64()*0.02))
		curves.Set(i, 2, math.Min(1, c1+0.15+rng.NormFloat64()*0.02))
	}
	p, err := NewGPPredictor(curves, DefaultGPPredictorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStages() != 3 {
		t.Fatalf("stages = %d", p.NumStages())
	}
	// Priors ≈ column means.
	if math.Abs(p.Prior(0)-0.6) > 0.05 {
		t.Fatalf("prior(0) = %v", p.Prior(0))
	}
	// Prediction should recover the +0.1 structure in the interior.
	got := p.Predict(0, 0, 0.5, 1)
	if math.Abs(got-0.6) > 0.05 {
		t.Fatalf("GP predict 0→1 at 0.5 = %v, want ≈0.6", got)
	}
	got = p.Predict(1, 0, 0.6, 2)
	if got < 0.55 || got > 0.75 {
		t.Fatalf("GP predict 1→2 at 0.6 = %v", got)
	}
	// Outputs stay in [0,1] across the domain.
	for _, c := range []float64{0, 0.25, 0.5, 0.75, 1} {
		v := p.Predict(0, 0, c, 2)
		if v < 0 || v > 1 {
			t.Fatalf("prediction %v outside [0,1]", v)
		}
	}
}

func TestGPPredictorErrors(t *testing.T) {
	if _, err := NewGPPredictor(tensor.NewMatrix(2, 3), DefaultGPPredictorConfig()); err == nil {
		t.Fatal("expected error for too-few samples")
	}
	if _, err := NewGPPredictor(tensor.NewMatrix(10, 0), DefaultGPPredictorConfig()); err == nil {
		t.Fatal("expected error for zero stages")
	}
}

func TestMetricsAggregates(t *testing.T) {
	m := Metrics{Outcomes: []TaskOutcome{
		{Correct: true, Answered: true, Stages: 3},
		{Correct: false, Answered: true, Stages: 1, Expired: true},
		{Correct: false, Answered: false, Stages: 0, Expired: true},
		{Correct: true, Answered: true, Stages: 2},
	}}
	if m.Accuracy() != 0.5 {
		t.Fatalf("accuracy = %v", m.Accuracy())
	}
	if m.MeanStages() != 1.5 {
		t.Fatalf("mean stages = %v", m.MeanStages())
	}
	if m.ExpiredRate() != 0.5 {
		t.Fatalf("expired = %v", m.ExpiredRate())
	}
	if m.UnansweredRate() != 0.25 {
		t.Fatalf("unanswered = %v", m.UnansweredRate())
	}
	empty := Metrics{}
	if empty.Accuracy() != 0 || empty.MeanStages() != 0 || empty.ExpiredRate() != 0 || empty.UnansweredRate() != 0 {
		t.Fatal("empty metrics should be zeros")
	}
	if empty.String() == "" || m.String() == "" {
		t.Fatal("String() should describe the run")
	}
}

func TestWeightedGreedyPrefersHeavyTasks(t *testing.T) {
	pred := flatPriors()
	g := NewGreedy(1, pred, "w")
	mk := func(id int, w float64) *TaskState {
		return &TaskState{Task: &Task{ID: id, NumStages: 3, Weight: w}, Deadline: 100}
	}
	// Both unstarted: identical predicted gain, but task 1 is weighted.
	q, tasks := policyQueue(g, mk(0, 1), mk(1, 4))
	if got := leaderIndex(q, tasks, 0); got != 1 {
		t.Fatalf("weighted greedy picked %d, want the weighted task", got)
	}
}

func TestEffectiveWeightDefaults(t *testing.T) {
	tk := &Task{}
	if tk.EffectiveWeight() != 1 {
		t.Fatalf("zero weight should default to 1, got %v", tk.EffectiveWeight())
	}
	tk.Weight = 2.5
	if tk.EffectiveWeight() != 2.5 {
		t.Fatalf("weight = %v", tk.EffectiveWeight())
	}
}

func TestPerTaskRelativeDeadline(t *testing.T) {
	// Tasks with a tight RelDeadline must expire earlier than the
	// simulation-wide constraint allows.
	cfg := SimConfig{Workers: 1, Concurrency: 4, TotalTasks: 12, StageCost: 10, Deadline: 100}
	src := func(id int) *Task {
		t := &Task{Label: 0, NumStages: 3, Class: "loose"}
		t.Run = func(stage int) StageResult { return StageResult{Pred: 0, Conf: 0.9} }
		if id%2 == 0 {
			t.Class = "tight"
			t.RelDeadline = 15 // one stage at most
		}
		return t
	}
	m, err := Simulate(cfg, NewFIFO(), src)
	if err != nil {
		t.Fatal(err)
	}
	stats := m.ClassAccuracy()
	tight := stats["tight"]
	loose := stats["loose"]
	if tight.Total == 0 || loose.Total == 0 {
		t.Fatalf("class totals %+v", stats)
	}
	// Tight tasks cannot run more than one stage; under FIFO most of
	// them expire. Loose tasks have time for everything.
	for _, o := range m.Outcomes {
		if o.Class == "tight" && o.Stages > 1 {
			t.Fatalf("tight task %d ran %d stages within a 15-tick deadline", o.ID, o.Stages)
		}
	}
	if tight.ExpiredRate() <= loose.ExpiredRate() {
		t.Fatalf("tight class expired %v, loose %v", tight.ExpiredRate(), loose.ExpiredRate())
	}
}

func TestClassStatsHelpers(t *testing.T) {
	m := Metrics{Outcomes: []TaskOutcome{
		{Class: "a", Correct: true, Answered: true},
		{Class: "a", Expired: true},
		{Class: "b", Correct: true, Answered: true},
	}}
	stats := m.ClassAccuracy()
	if stats["a"].Accuracy() != 0.5 || stats["a"].ExpiredRate() != 0.5 {
		t.Fatalf("class a stats %+v", stats["a"])
	}
	if stats["b"].Accuracy() != 1 {
		t.Fatalf("class b stats %+v", stats["b"])
	}
	var empty ClassStats
	if empty.Accuracy() != 0 || empty.ExpiredRate() != 0 {
		t.Fatal("empty class stats should be zero")
	}
}

func TestStreamAccuracyStd(t *testing.T) {
	m := Metrics{}
	// Stream 0 all correct, stream 1 all wrong → std 0.5 with n=2.
	for i := 0; i < 20; i++ {
		m.Outcomes = append(m.Outcomes, TaskOutcome{ID: i, Correct: i%2 == 0})
	}
	if got := m.StreamAccuracyStd(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("stream std = %v, want 0.5", got)
	}
	if got := m.StreamAccuracyStd(0); got != 0 {
		t.Fatalf("n=0 std = %v", got)
	}
	// Uniform outcomes → std 0.
	u := Metrics{}
	for i := 0; i < 20; i++ {
		u.Outcomes = append(u.Outcomes, TaskOutcome{ID: i, Correct: true})
	}
	if got := u.StreamAccuracyStd(4); got != 0 {
		t.Fatalf("uniform std = %v", got)
	}
}
