package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"eugene/internal/sched"
)

// ServiceClassResult is the Section V extension experiment: the paper's
// future-work scenario of an interactive chatbot (tight deadline, high
// weight) sharing the service with an intrusion-detection camera (loose
// deadline), comparing the class-aware weighted-utility scheduler
// against a class-blind one.
type ServiceClassResult struct {
	// Stats[policy][class].
	Stats    map[string]map[string]sched.ClassStats
	Policies []string
}

// ServiceClassConfig controls the experiment.
type ServiceClassConfig struct {
	Workers     int
	Concurrency int
	TotalTasks  int
	StageCost   sched.Ticks
	// ChatDeadline and CameraDeadline are the per-class latency
	// constraints; ChatWeight is the chatbot's utility multiplier.
	ChatDeadline   sched.Ticks
	CameraDeadline sched.Ticks
	ChatWeight     float64
	// ChatShare is the fraction of traffic from the chatbot class.
	ChatShare float64
	Seed      int64
}

// DefaultServiceClassConfig loads the system so the chatbot's tight
// deadline is only met when the scheduler prioritizes it.
func DefaultServiceClassConfig() ServiceClassConfig {
	return ServiceClassConfig{
		Workers:        4,
		Concurrency:    24,
		TotalTasks:     400,
		StageCost:      10,
		ChatDeadline:   12,
		CameraDeadline: 120,
		ChatWeight:     4,
		ChatShare:      0.3,
		Seed:           31,
	}
}

// ServiceClasses runs the two-class workload under the weighted and
// unweighted RTDeepIoT schedulers.
func (l *Lab) ServiceClasses(cfg ServiceClassConfig) (*ServiceClassResult, error) {
	if cfg.Workers < 1 || cfg.TotalTasks < 1 || cfg.ChatShare < 0 || cfg.ChatShare > 1 {
		return nil, fmt.Errorf("experiments: bad service-class config %+v", cfg)
	}
	res := &ServiceClassResult{
		Stats:    make(map[string]map[string]sched.ClassStats),
		Policies: []string{"weighted", "class-blind"},
	}
	outs := l.Calibrated.PredictRows(l.Holdout.X)
	for _, weighted := range []bool{true, false} {
		name := "class-blind"
		if weighted {
			name = "weighted"
		}
		order := rand.New(rand.NewSource(cfg.Seed)).Perm(l.Holdout.Len())
		classRng := rand.New(rand.NewSource(cfg.Seed + 1))
		base := l.holdoutTasks(outs, order)
		source := func(id int) *sched.Task {
			t := base(id)
			if classRng.Float64() < cfg.ChatShare {
				t.Class = "chatbot"
				t.RelDeadline = cfg.ChatDeadline
				if weighted {
					t.Weight = cfg.ChatWeight
				}
			} else {
				t.Class = "camera"
				t.RelDeadline = cfg.CameraDeadline
			}
			return t
		}
		m, err := sched.Simulate(sched.SimConfig{
			Workers:     cfg.Workers,
			Concurrency: cfg.Concurrency,
			TotalTasks:  cfg.TotalTasks,
			StageCost:   cfg.StageCost,
			Deadline:    cfg.CameraDeadline,
		}, sched.NewGreedy(1, l.Pred, name), source)
		if err != nil {
			return nil, fmt.Errorf("experiments: service classes (%s): %w", name, err)
		}
		res.Stats[name] = m.ClassAccuracy()
	}
	return res, nil
}

// Render prints the comparison.
func (r *ServiceClassResult) Render() string {
	var b strings.Builder
	b.WriteString("Service classes (Sec. V extension): chatbot (tight deadline) vs camera\n")
	fmt.Fprintf(&b, "%-14s %-10s %-10s %-12s %-12s\n", "scheduler", "class", "accuracy", "expired", "unanswered")
	for _, p := range r.Policies {
		for _, cls := range []string{"chatbot", "camera"} {
			st := r.Stats[p][cls]
			fmt.Fprintf(&b, "%-14s %-10s %-10.3f %-12.3f %-12.3f\n",
				p, cls, st.Accuracy(), st.ExpiredRate(),
				float64(st.Unanswered)/float64(max(st.Total, 1)))
		}
	}
	b.WriteString("(weighted utility keeps chatbot answers inside the tight deadline;\n")
	b.WriteString(" the class-blind scheduler starves them under load)\n")
	return b.String()
}
