package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"eugene/internal/sched"
	"eugene/internal/staged"
)

// Fig4Config controls the scheduler scalability experiment (paper
// Figure 4): a closed loop of N concurrent tasks over a fixed worker
// pool with a per-task latency constraint.
type Fig4Config struct {
	Concurrency []int
	Workers     int
	StageCost   sched.Ticks
	Deadline    sched.Ticks
	TasksPerRun int
	// Reps is the number of independent repetitions (different task
	// orders); Figure 4c reports the std of accuracy across them.
	Reps int
	Seed int64
}

// DefaultFig4Config mirrors the paper's setup: 8 workers (their 8-CPU
// workstation) and N ∈ {2, 5, 10, 20} concurrent tasks.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		Concurrency: []int{2, 5, 10, 20},
		Workers:     8,
		StageCost:   10,
		Deadline:    30,
		TasksPerRun: 400,
		Reps:        8,
		Seed:        23,
	}
}

// Validate reports an error for degenerate configurations.
func (c Fig4Config) Validate() error {
	if len(c.Concurrency) == 0 || c.Workers < 1 || c.TasksPerRun < 1 || c.Reps < 1 {
		return fmt.Errorf("experiments: bad Fig4 config %+v", c)
	}
	return nil
}

// Fig4Cell is one (policy, concurrency) measurement.
type Fig4Cell struct {
	MeanAcc float64
	// StdAcc is the mean (over reps) of the per-stream accuracy
	// standard deviation — the paper's fairness metric (Figure 4c):
	// each of the N concurrent slots is one client stream.
	StdAcc     float64
	MeanStages float64
	Unanswered float64
}

// Fig4Result holds the full grid.
type Fig4Result struct {
	Cfg      Fig4Config
	Policies []string
	// Cells[policy][ci] corresponds to Policies[policy] at
	// Cfg.Concurrency[ci].
	Cells [][]Fig4Cell
	// StageAccs is the per-stage holdout accuracy for context.
	StageAccs []float64
}

// policySpec builds fresh policy instances per run (policies carry
// internal state).
type policySpec struct {
	name string
	make func(l *Lab) sched.Policy
}

func fig4Policies() []policySpec {
	mkGreedy := func(k int) policySpec {
		name := fmt.Sprintf("RTDeepIoT-%d", k)
		return policySpec{name: name, make: func(l *Lab) sched.Policy {
			return sched.NewGreedy(k, l.Pred, name)
		}}
	}
	mkDC := func(k int) policySpec {
		name := fmt.Sprintf("RTDeepIoT-DC-%d", k)
		return policySpec{name: name, make: func(l *Lab) sched.Policy {
			priors := make([]float64, l.Pred.NumStages())
			for s := range priors {
				priors[s] = l.Pred.Prior(s)
			}
			return sched.NewGreedy(k, sched.NewDCPredictor(priors), name)
		}}
	}
	return []policySpec{
		mkGreedy(1), mkGreedy(2), mkGreedy(3),
		mkDC(1), mkDC(2), mkDC(3),
		{name: "RR", make: func(*Lab) sched.Policy { return sched.NewRoundRobin() }},
		{name: "FIFO", make: func(*Lab) sched.Policy { return sched.NewFIFO() }},
	}
}

// Fig4 runs the scalability grid on the calibrated model over the
// holdout split.
func (l *Lab) Fig4(cfg Fig4Config) (*Fig4Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	specs := fig4Policies()
	res := &Fig4Result{Cfg: cfg, StageAccs: l.StageAccuracies()}
	for _, s := range specs {
		res.Policies = append(res.Policies, s.name)
	}
	res.Cells = make([][]Fig4Cell, len(specs))
	outs := l.Calibrated.PredictRows(l.Holdout.X)
	for pi, spec := range specs {
		res.Cells[pi] = make([]Fig4Cell, len(cfg.Concurrency))
		for ci, n := range cfg.Concurrency {
			accs := make([]float64, cfg.Reps)
			var stages, unanswered, streamStd float64
			for rep := 0; rep < cfg.Reps; rep++ {
				order := rand.New(rand.NewSource(cfg.Seed + int64(rep))).Perm(l.Holdout.Len())
				source := l.holdoutTasks(outs, order)
				sim := sched.SimConfig{
					Workers:     cfg.Workers,
					Concurrency: n,
					TotalTasks:  cfg.TasksPerRun,
					StageCost:   cfg.StageCost,
					Deadline:    cfg.Deadline,
				}
				m, err := sched.Simulate(sim, spec.make(l), source)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s at N=%d: %w", spec.name, n, err)
				}
				accs[rep] = m.Accuracy()
				stages += m.MeanStages()
				unanswered += m.UnansweredRate()
				streamStd += m.StreamAccuracyStd(n)
			}
			mean, _ := meanStd(accs)
			res.Cells[pi][ci] = Fig4Cell{
				MeanAcc:    mean,
				StdAcc:     streamStd / float64(cfg.Reps),
				MeanStages: stages / float64(cfg.Reps),
				Unanswered: unanswered / float64(cfg.Reps),
			}
		}
	}
	return res, nil
}

// holdoutTasks cycles holdout samples in the given order. outs is one
// PredictRows pass over the holdout, and a task's stages answer from its
// row of it, in order.
func (l *Lab) holdoutTasks(outs [][]staged.StageOutput, order []int) func(id int) *sched.Task {
	return func(id int) *sched.Task {
		idx := order[id%len(order)]
		next := 0
		return &sched.Task{
			Label:     l.Holdout.Labels[idx],
			NumStages: len(outs[idx]),
			Run: func(stage int) sched.StageResult {
				if stage != next {
					panic(fmt.Sprintf("experiments: stage %d requested, task at %d", stage, next))
				}
				next++
				out := outs[idx][stage]
				return sched.StageResult{Pred: out.Pred, Conf: out.Conf}
			},
		}
	}
}

// Render prints Figure 4's three panels as tables.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: scheduler scalability (workers=%d, deadline=%d ticks, stage=%d ticks, %d tasks × %d reps)\n",
		r.Cfg.Workers, r.Cfg.Deadline, r.Cfg.StageCost, r.Cfg.TasksPerRun, r.Cfg.Reps)
	fmt.Fprintf(&b, "stage accuracies (holdout): %s\n\n", fmtFloats(r.StageAccs))
	b.WriteString("(a,b) mean service accuracy (%)\n")
	fmt.Fprintf(&b, "%-16s", "policy \\ N")
	for _, n := range r.Cfg.Concurrency {
		fmt.Fprintf(&b, "%8d", n)
	}
	b.WriteString("\n")
	for pi, name := range r.Policies {
		fmt.Fprintf(&b, "%-16s", name)
		for ci := range r.Cfg.Concurrency {
			fmt.Fprintf(&b, "%8.1f", 100*r.Cells[pi][ci].MeanAcc)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n(c) per-stream accuracy std (%, fairness)\n")
	fmt.Fprintf(&b, "%-16s", "policy \\ N")
	for _, n := range r.Cfg.Concurrency {
		fmt.Fprintf(&b, "%8d", n)
	}
	b.WriteString("\n")
	for pi, name := range r.Policies {
		fmt.Fprintf(&b, "%-16s", name)
		for ci := range r.Cfg.Concurrency {
			fmt.Fprintf(&b, "%8.1f", 100*r.Cells[pi][ci].StdAcc)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nmean stages executed per task\n")
	fmt.Fprintf(&b, "%-16s", "policy \\ N")
	for _, n := range r.Cfg.Concurrency {
		fmt.Fprintf(&b, "%8d", n)
	}
	b.WriteString("\n")
	for pi, name := range r.Policies {
		fmt.Fprintf(&b, "%-16s", name)
		for ci := range r.Cfg.Concurrency {
			fmt.Fprintf(&b, "%8.2f", r.Cells[pi][ci].MeanStages)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Cell returns the measurement for a named policy at concurrency n.
func (r *Fig4Result) Cell(policy string, n int) (Fig4Cell, error) {
	pi := -1
	for i, p := range r.Policies {
		if p == policy {
			pi = i
		}
	}
	ci := -1
	for i, c := range r.Cfg.Concurrency {
		if c == n {
			ci = i
		}
	}
	if pi < 0 || ci < 0 {
		return Fig4Cell{}, fmt.Errorf("experiments: no cell (%q, %d)", policy, n)
	}
	return r.Cells[pi][ci], nil
}

func meanStd(v []float64) (mean, std float64) {
	if len(v) == 0 {
		return 0, 0
	}
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	for _, x := range v {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(v)))
	return mean, std
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
