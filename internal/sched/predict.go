package sched

import (
	"fmt"
	"math"

	"eugene/internal/gp"
	"eugene/internal/tensor"
)

// GPPredictor predicts future-stage confidence with per-stage-pair
// Gaussian-process regressions approximated by piecewise-linear
// functions (paper Section III-B). Entry curve[from][to] maps observed
// confidence at stage `from` to predicted confidence at stage `to`.
type GPPredictor struct {
	priors []float64
	curves [][]*gp.PiecewiseLinear
	// Regs holds the underlying exact GPs; retained for evaluation
	// (Table III) and confidence-interval queries.
	Regs [][]*gp.Regressor
}

// GPPredictorConfig controls GP fitting.
type GPPredictorConfig struct {
	Kernel gp.Kernel
	// MaxPoints caps GP training points (O(n³) fitting).
	MaxPoints int
	// Segments is the piecewise-linear resolution (paper: the profile
	// grid {0, 1/M, ..., 1}).
	Segments int
	// Seed drives the training-point subsample.
	Seed int64
}

// DefaultGPPredictorConfig returns the configuration used by the
// experiments.
func DefaultGPPredictorConfig() GPPredictorConfig {
	return GPPredictorConfig{
		Kernel:    gp.DefaultKernel(),
		MaxPoints: 300,
		Segments:  10,
		Seed:      1,
	}
}

// NewGPPredictor fits GP regressions on training-set confidence curves:
// curves is a samples×stages matrix of observed confidences (from
// staged.Model.ConfidenceCurves).
func NewGPPredictor(curves *tensor.Matrix, cfg GPPredictorConfig) (*GPPredictor, error) {
	stages := curves.Cols
	if stages < 1 {
		return nil, fmt.Errorf("sched: confidence curves have no stages")
	}
	if curves.Rows < 4 {
		return nil, fmt.Errorf("sched: %d curve samples is too few", curves.Rows)
	}
	p := &GPPredictor{
		priors: make([]float64, stages),
		curves: make([][]*gp.PiecewiseLinear, stages),
		Regs:   make([][]*gp.Regressor, stages),
	}
	for s := 0; s < stages; s++ {
		var sum float64
		for i := 0; i < curves.Rows; i++ {
			sum += curves.At(i, s)
		}
		p.priors[s] = sum / float64(curves.Rows)
		p.curves[s] = make([]*gp.PiecewiseLinear, stages)
		p.Regs[s] = make([]*gp.Regressor, stages)
	}
	for from := 0; from < stages; from++ {
		for to := from + 1; to < stages; to++ {
			x := make([]float64, curves.Rows)
			y := make([]float64, curves.Rows)
			for i := 0; i < curves.Rows; i++ {
				x[i] = curves.At(i, from)
				y[i] = curves.At(i, to)
			}
			reg, err := gp.Fit(cfg.Kernel, x, y, cfg.MaxPoints, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("sched: fitting GP %d→%d: %w", from, to, err)
			}
			pwl, err := gp.ProfileRegressor(reg, cfg.Segments)
			if err != nil {
				return nil, fmt.Errorf("sched: profiling GP %d→%d: %w", from, to, err)
			}
			p.Regs[from][to] = reg
			p.curves[from][to] = pwl
		}
	}
	return p, nil
}

// RestoreGPPredictor rebuilds a predictor from persisted parts: per-stage
// prior confidences and the profiled piecewise-linear curves, indexed
// profiles[from][to] with entries present exactly for from < to. The
// exact GP regressors (Regs) are not restored — they exist only for
// offline evaluation; scheduling uses the profiles alone, so a restored
// predictor schedules bitwise-identically to the one it was saved from.
func RestoreGPPredictor(priors []float64, profiles [][]*gp.PiecewiseLinear) (*GPPredictor, error) {
	stages := len(priors)
	if stages < 1 {
		return nil, fmt.Errorf("sched: restoring predictor with no stages")
	}
	for i, p := range priors {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			// A NaN prior would silently poison every utility
			// comparison in the scheduler (NaN loses all orderings).
			return nil, fmt.Errorf("sched: prior %d is %v", i, p)
		}
	}
	if len(profiles) != stages {
		return nil, fmt.Errorf("sched: %d profile rows for %d stages", len(profiles), stages)
	}
	p := &GPPredictor{
		priors: append([]float64(nil), priors...),
		curves: make([][]*gp.PiecewiseLinear, stages),
		Regs:   make([][]*gp.Regressor, stages),
	}
	for from := 0; from < stages; from++ {
		if len(profiles[from]) != stages {
			return nil, fmt.Errorf("sched: profile row %d has %d entries for %d stages", from, len(profiles[from]), stages)
		}
		p.curves[from] = make([]*gp.PiecewiseLinear, stages)
		p.Regs[from] = make([]*gp.Regressor, stages)
		for to := 0; to < stages; to++ {
			pwl := profiles[from][to]
			if (pwl != nil) != (from < to) {
				return nil, fmt.Errorf("sched: profile %d→%d presence mismatch", from, to)
			}
			if pwl == nil {
				continue
			}
			if err := pwl.Validate(); err != nil {
				return nil, fmt.Errorf("sched: profile %d→%d: %w", from, to, err)
			}
			p.curves[from][to] = pwl
		}
	}
	return p, nil
}

// StagePriors returns the per-stage prior confidences (read-only).
func (p *GPPredictor) StagePriors() []float64 { return p.priors }

// Profiles returns the piecewise-linear curves, indexed [from][to] with
// non-nil entries exactly for from < to (read-only; shared with the
// predictor).
func (p *GPPredictor) Profiles() [][]*gp.PiecewiseLinear { return p.curves }

// Prior implements Predictor.
func (p *GPPredictor) Prior(stage int) float64 {
	if stage < 0 || stage >= len(p.priors) {
		panic(fmt.Sprintf("sched: prior for stage %d of %d", stage, len(p.priors)))
	}
	return p.priors[stage]
}

// Predict implements Predictor. prev is unused: the GP conditions only
// on the latest observation, as in the paper's GP1→2, GP1→3, GP2→3
// models.
func (p *GPPredictor) Predict(last int, _, cur float64, target int) float64 {
	if target <= last {
		return cur
	}
	if target >= len(p.priors) {
		panic(fmt.Sprintf("sched: predict target %d of %d stages", target, len(p.priors)))
	}
	v := p.curves[last][target].At(cur)
	return clamp01(v)
}

// NumStages returns the number of stages the predictor covers.
func (p *GPPredictor) NumStages() int { return len(p.priors) }

// DCPredictor is the paper's simplified variant: it assumes confidence
// keeps increasing with the slope observed in the current stage.
type DCPredictor struct {
	priors []float64
}

// NewDCPredictor uses the same training priors as the GP predictor but
// extrapolates linearly instead of regressing.
func NewDCPredictor(priors []float64) *DCPredictor {
	return &DCPredictor{priors: append([]float64(nil), priors...)}
}

// Prior implements Predictor.
func (d *DCPredictor) Prior(stage int) float64 {
	if stage < 0 || stage >= len(d.priors) {
		panic(fmt.Sprintf("sched: prior for stage %d of %d", stage, len(d.priors)))
	}
	return d.priors[stage]
}

// Predict implements Predictor: confidence at target = cur + slope ×
// (target − last), slope = cur − prev, clamped to [0, 1].
//
// When only one confidence observation exists, prev is the zero
// sentinel (TaskState.PrevConf before two stages have run); a literal
// cur − prev slope would then be cur itself, predicting ≈ 2×cur at the
// next stage and wildly inflating first-stage differential utility.
// Softmax confidences are strictly positive, so prev = 0 can only mean
// "no prior observation": fall back to the prior-curve slope at last.
func (d *DCPredictor) Predict(last int, prev, cur float64, target int) float64 {
	if target <= last {
		return cur
	}
	var slope float64
	if prev > 0 {
		slope = cur - prev
	} else if last+1 < len(d.priors) {
		slope = d.priors[last+1] - d.priors[last]
	}
	return clamp01(cur + slope*float64(target-last))
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
