package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"eugene/internal/sched"
)

// CalibAblationResult probes the interaction between the paper's
// Table II and Figure 4: the same RTDeepIoT-1 policy driven by (a) the
// calibrated model with its GP predictor, and (b) the raw uncalibrated
// model with a GP fit on its (miscalibrated) curves. The measured
// outcome is parity: because the Eq. 4 scale calibration is monotone per
// stage and the GP predictor is refit per model, stage allocations — and
// hence service accuracy — are essentially unchanged. Calibration's
// value is in the confidence reported to clients and in early-exit
// thresholds (see examples/uncertainty), not in the greedy allocation.
type CalibAblationResult struct {
	Concurrency  int
	Calibrated   float64
	Uncalibrated float64
}

// CalibAblation runs the N-task contention point for both models.
func (l *Lab) CalibAblation(concurrency int, cfg Fig4Config) (*CalibAblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Predictor for the uncalibrated model, fit on its own curves.
	curves, _ := l.Model.ConfidenceCurves(l.Train)
	rawPred, err := sched.NewGPPredictor(curves, l.Cfg.GP)
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting raw GP: %w", err)
	}
	run := func(model modelKind, pred sched.Predictor) (float64, error) {
		var sum float64
		for rep := 0; rep < cfg.Reps; rep++ {
			order := rand.New(rand.NewSource(cfg.Seed + int64(rep))).Perm(l.Holdout.Len())
			var source func(id int) *sched.Task
			if model == calibratedModel {
				source = l.taskSource(order)
			} else {
				source = l.rawTaskSource(order)
			}
			m, err := sched.Simulate(sched.SimConfig{
				Workers:     cfg.Workers,
				Concurrency: concurrency,
				TotalTasks:  cfg.TasksPerRun,
				StageCost:   cfg.StageCost,
				Deadline:    cfg.Deadline,
			}, sched.NewGreedy(1, pred, "ablate"), source)
			if err != nil {
				return 0, err
			}
			sum += m.Accuracy()
		}
		return sum / float64(cfg.Reps), nil
	}
	cal, err := run(calibratedModel, l.Pred)
	if err != nil {
		return nil, err
	}
	raw, err := run(rawModel, rawPred)
	if err != nil {
		return nil, err
	}
	return &CalibAblationResult{Concurrency: concurrency, Calibrated: cal, Uncalibrated: raw}, nil
}

type modelKind int

const (
	calibratedModel modelKind = iota + 1
	rawModel
)

// rawTaskSource is taskSource over the uncalibrated model.
func (l *Lab) rawTaskSource(order []int) func(id int) *sched.Task {
	model := l.Model
	holdout := l.Holdout
	return func(id int) *sched.Task {
		idx := order[id%len(order)]
		x, label := holdout.Sample(idx)
		runner := model.NewRunner(x)
		return &sched.Task{
			Label:     label,
			NumStages: model.NumStages(),
			Run: func(stage int) sched.StageResult {
				out := runner.RunStage()
				return sched.StageResult{Pred: out.Pred, Conf: out.Conf}
			},
		}
	}
}

// Render prints the ablation.
func (r *CalibAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Calibration → scheduling ablation (RTDeepIoT-1 at N=%d):\n", r.Concurrency)
	fmt.Fprintf(&b, "  calibrated confidence:   %.1f%% service accuracy\n", 100*r.Calibrated)
	fmt.Fprintf(&b, "  uncalibrated confidence: %.1f%% service accuracy\n", 100*r.Uncalibrated)
	b.WriteString("(scale-restricted calibration is monotone per stage — it never changes the\n")
	b.WriteString(" arg-max — and the GP predictor is refit per model, so the greedy scheduler\n")
	b.WriteString(" is robust to it; calibration's value is in the confidence REPORTED to\n")
	b.WriteString(" clients and early-exit thresholds, not in the stage allocation itself)\n")
	return b.String()
}
