package calib

import (
	"fmt"
	"math"

	"eugene/internal/dataset"
	"eugene/internal/nn"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// StageEval holds per-stage confidence/correctness over a dataset:
// Confs[s][i] is the confidence of sample i at stage s.
type StageEval struct {
	Confs   [][]float64
	Correct [][]bool
}

// ECEPerStage returns the ECE of every stage with m bins.
func (e *StageEval) ECEPerStage(m int) ([]float64, error) {
	out := make([]float64, len(e.Confs))
	for s := range e.Confs {
		v, err := ECE(e.Confs[s], e.Correct[s], m)
		if err != nil {
			return nil, fmt.Errorf("calib: stage %d: %w", s, err)
		}
		out[s] = v
	}
	return out, nil
}

// MeanECE averages ECE across stages; the entropy-calibration grid search
// minimizes this.
func (e *StageEval) MeanECE(m int) (float64, error) {
	per, err := e.ECEPerStage(m)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range per {
		sum += v
	}
	return sum / float64(len(per)), nil
}

// EvalUncalibrated runs the model deterministically over the set and
// collects per-stage confidences — the paper's "Uncalibrated" row.
func EvalUncalibrated(m *staged.Model, set *dataset.Set) *StageEval {
	ev := newStageEval(m.NumStages(), set.Len())
	for i, outs := range m.PredictRows(set.X) {
		for j, o := range outs {
			ev.Confs[j][i] = o.Conf
			ev.Correct[j][i] = o.Pred == set.Labels[i]
		}
	}
	return ev
}

// EvalMCDropout implements the RDeepSense baseline: with dropout kept
// stochastic at inference time, average the per-stage probability vectors
// over k passes and read prediction and confidence from the average.
func EvalMCDropout(m *staged.Model, set *dataset.Set, k int, seed int64) *StageEval {
	return EvalMCDropoutRate(m, set, k, seed, 0)
}

// EvalMCDropoutRate is EvalMCDropout with an explicit Monte-Carlo drop
// rate; rate ≤ 0 keeps the rates the model was trained with. The MC rate
// is the baseline's main knob: higher rates soften the averaged
// probabilities further.
func EvalMCDropoutRate(m *staged.Model, set *dataset.Set, k int, seed int64, rate float64) *StageEval {
	if k < 1 {
		panic(fmt.Sprintf("calib: MC dropout needs k ≥ 1, got %d", k))
	}
	if rate >= 1 {
		panic(fmt.Sprintf("calib: MC dropout rate %v outside [0,1)", rate))
	}
	// Work on a clone so toggling MC mode cannot leak to other users of
	// the model.
	mc := m.Clone()
	for _, st := range mc.Stages {
		nn.SetMCDropout(st.Head, true)
		if rate > 0 {
			setDropoutRate(st.Head, rate)
		}
	}
	// Reseed the dropout RNGs deterministically.
	reseedDropout(mc, seed)
	stages := mc.NumStages()
	ev := newStageEval(stages, set.Len())
	avg := make([][]float64, stages)
	for s := range avg {
		avg[s] = make([]float64, mc.Classes)
	}
	for i := 0; i < set.Len(); i++ {
		x, y := set.Sample(i)
		for s := range avg {
			for c := range avg[s] {
				avg[s][c] = 0
			}
		}
		for pass := 0; pass < k; pass++ {
			outs := mc.Predict(x, stages-1)
			for s, o := range outs {
				for c, p := range o.Probs {
					avg[s][c] += p
				}
			}
		}
		for s := range avg {
			for c := range avg[s] {
				avg[s][c] /= float64(k)
			}
			pred, conf := tensor.ArgMax(avg[s])
			ev.Confs[s][i] = conf
			ev.Correct[s][i] = pred == y
		}
	}
	return ev
}

// EntropyCalibConfig controls the Eq. 4 fine-tuning grid search.
type EntropyCalibConfig struct {
	// Alphas are the candidate |α| magnitudes; EntropyCalibrate tries
	// each with both signs, plus α = 0, for every stage.
	Alphas []float64
	// Epochs of head-only fine-tuning per candidate.
	Epochs int
	// LR for fine-tuning.
	LR float64
	// Bins for the ECE objective.
	Bins int
}

// DefaultEntropyCalibConfig returns the grid used by the experiments.
func DefaultEntropyCalibConfig() EntropyCalibConfig {
	return EntropyCalibConfig{
		Alphas: []float64{0.1, 0.25, 0.5, 1, 2},
		Epochs: 12,
		LR:     0.03,
		Bins:   10,
	}
}

// EntropyCalibrate implements the paper's RTDeepIoT calibration:
// fine-tune each exit head with the Eq. 4 loss CE + α·H(p), choosing α
// by grid search minimizing that stage's ECE. The calibration set is
// split internally into a fit half and a select half so the grid search
// does not score on the data it tuned, and the winning configuration is
// refit on the full calibration set.
//
// Two deliberate refinements over the paper's sketch:
//
//   - The fine-tuning is restricted to one scalar per head — the scale
//     of the exit classifier's logits — optimized by full-batch gradient
//     descent on the Eq. 4 loss. Unrestricted head fine-tuning on a small
//     held-out calibration set overfits it, and on the (overfit) training
//     set the exit probabilities are saturated so the Eq. 4 gradients
//     vanish.
//   - α is searched over both signs per stage rather than fixing the
//     sign from the initial miscalibration direction: the CE term's
//     minimum is dominated by saturated wrong predictions and lands
//     under-confident, so the entropy term most often needs to sharpen
//     (α > 0) relative to it even for an initially over-confident
//     network. The paper's sign rule describes the direction relative to
//     the current operating point; the grid realizes it automatically.
//
// The fits are independent of one another — every (stage, α) of the
// grid, then every stage's refit — so they run through tensor.Each on
// whatever cores are free, each into its own cell; the selection then
// reads the cells in grid order, so the result does not depend on how
// many cores ran them.
//
// It returns the calibrated model, a clone of m (m itself is only read
// and cloned), and the mean of the chosen per-stage α values (reported
// for inspection).
func EntropyCalibrate(m *staged.Model, calibSet *dataset.Set, cfg EntropyCalibConfig) (*staged.Model, float64, error) {
	if len(cfg.Alphas) == 0 || cfg.Epochs < 1 || cfg.Bins < 1 {
		return nil, 0, fmt.Errorf("calib: bad entropy calibration config %+v", cfg)
	}
	if calibSet.Len() < 4 {
		return nil, 0, fmt.Errorf("calib: calibration set of %d samples is too small", calibSet.Len())
	}
	// Forward passes write layer scratch, so they run on the clone that
	// becomes the calibrated model, never on m.
	m = m.Clone()
	// The first half of the set fits the candidate scales and the second
	// selects among them. PredictRows gives a row the logits it has
	// alone, so one pass over the whole set gives both halves' logits,
	// and the refit's.
	logits, labels := stageLogits(m, calibSet)
	half := calibSet.Len() / 2
	fitLabels, selLabels := labels[:half], labels[half:]
	fitLogits, selLogits := make([]*tensor.Matrix, len(logits)), make([]*tensor.Matrix, len(logits))
	for st, z := range logits {
		fitLogits[st] = tensor.FromSlice(half, z.Cols, z.Data[:half*z.Cols])
		selLogits[st] = tensor.FromSlice(z.Rows-half, z.Cols, z.Data[half*z.Cols:])
	}
	iters := cfg.Epochs * 25

	stages := m.NumStages()
	candidates := []float64{0}
	for _, a := range cfg.Alphas {
		candidates = append(candidates, a, -a)
	}
	type cell struct {
		scale, ece float64
		err        error
	}
	grid := make([]cell, stages*len(candidates)) // [stage][candidate]
	tensor.Each(len(grid), func(i int) {
		st, c := i/len(candidates), &grid[i]
		c.scale = fitHeadScale(fitLogits[st], fitLabels, candidates[i%len(candidates)], iters, cfg.LR)
		c.ece, c.err = scaledECE(selLogits[st], selLabels, c.scale, cfg.Bins)
	})
	bestScales := make([]float64, stages)
	bestAlphas := make([]float64, stages)
	for st := 0; st < stages; st++ {
		bestScales[st] = 1
		bestECE, err := scaledECE(selLogits[st], selLabels, 1, cfg.Bins)
		if err != nil {
			return nil, 0, err
		}
		for ci, alpha := range candidates {
			c := grid[st*len(candidates)+ci]
			if c.err != nil {
				return nil, 0, c.err
			}
			if c.ece < bestECE {
				bestECE, bestScales[st], bestAlphas[st] = c.ece, c.scale, alpha
			}
		}
	}
	// Refit the winning α on the full calibration set.
	declined := func(st int) bool { return bestScales[st] == 1 && bestAlphas[st] == 0 }
	finalScales := make([]float64, stages)
	tensor.Each(stages, func(st int) {
		if declined(st) {
			finalScales[st] = 1 // calibration declined for this stage
			return
		}
		finalScales[st] = fitHeadScale(logits[st], labels, bestAlphas[st], iters, cfg.LR)
	})
	var alphaSum float64
	for st := 0; st < stages; st++ {
		if !declined(st) {
			alphaSum += bestAlphas[st]
		}
	}
	scaleHeads(m, finalScales)
	return m, alphaSum / float64(stages), nil
}

// scaledECE computes the ECE of one stage's logits under a logit scale.
func scaledECE(z *tensor.Matrix, labels []int, scale float64, bins int) (float64, error) {
	if z.Rows == 0 {
		return 0, nil
	}
	scaled := tensor.NewMatrix(z.Rows, z.Cols)
	for i, v := range z.Data {
		scaled.Data[i] = scale * v
	}
	confs := make([]float64, z.Rows)
	correct := make([]bool, z.Rows)
	readConfs(confs, correct, tensor.NewMatrix(z.Rows, z.Cols), scaled, labels)
	return ECE(confs, correct, bins)
}

// readConfs writes the softmax of every row of z into probs, and each
// row's arg-max confidence into confs and whether the arg-max is the
// row's label into correct.
func readConfs(confs []float64, correct []bool, probs, z *tensor.Matrix, labels []int) {
	tensor.Softmax(probs, z)
	for i := range confs {
		pred, conf := tensor.ArgMax(probs.Row(i))
		confs[i] = conf
		correct[i] = pred == labels[i]
	}
}

// stageLogits collects per-stage log-probability vectors (equivalent to
// logits up to a per-sample constant, which softmax ignores) for every
// sample, one matrix a stage with a row a sample, so the scale
// optimization needs no further network passes.
func stageLogits(m *staged.Model, set *dataset.Set) ([]*tensor.Matrix, []int) {
	logits := make([]*tensor.Matrix, m.NumStages())
	for s := range logits {
		logits[s] = tensor.NewMatrix(set.Len(), m.Classes)
	}
	for i, outs := range m.PredictRows(set.X) {
		for s, o := range outs {
			tensor.LogFloor(logits[s].Row(i), o.Probs, 1e-12)
		}
	}
	return logits, set.Labels
}

// fitHeadScale gradient-descends one stage's logit scale s on the Eq. 4
// loss L(s) = mean CE(softmax(s·z), y) + α·H(softmax(s·z)), z a row a
// sample. Each step runs every row at once through tensor.Softmax and
// nn.EntropyLogsRows, and then sums the gradient in one chain, rows in
// order and classes in order within a row.
func fitHeadScale(z *tensor.Matrix, labels []int, alpha float64, iters int, lr float64) float64 {
	if z.Rows == 0 {
		return 1
	}
	scale := 1.0
	scaled := tensor.NewMatrix(z.Rows, z.Cols)
	probs := tensor.NewMatrix(z.Rows, z.Cols)
	lp := tensor.NewMatrix(z.Rows, z.Cols)
	hs := make([]float64, z.Rows)
	for it := 0; it < iters; it++ {
		for i, v := range z.Data {
			scaled.Data[i] = scale * v
		}
		tensor.Softmax(probs, scaled)
		if alpha != 0 {
			nn.EntropyLogsRows(hs, lp, probs)
		}
		var grad float64
		for i, h := range hs {
			p, zr, lpr := probs.Row(i), z.Row(i), lp.Row(i)
			// dL/d(s·z_j), then chain through z_j.
			for c := range p {
				g := p[c]
				if c == labels[i] {
					g -= 1
				}
				if alpha != 0 {
					g += alpha * (-p[c] * (lpr[c] + h))
				}
				grad += g * zr[c]
			}
		}
		grad /= float64(z.Rows)
		scale -= lr * grad
		if scale < 0.01 {
			scale = 0.01
		}
	}
	return scale
}

// scaleHeads multiplies each exit head's final linear layer of m by the
// per-stage scale, which scales its logits exactly.
func scaleHeads(m *staged.Model, scales []float64) {
	for s, st := range m.Stages {
		for _, p := range lastDense(st.Head).Params() {
			for i := range p.Value {
				p.Value[i] *= scales[s]
			}
		}
	}
}

// lastDense finds the final Dense layer of a head.
func lastDense(l nn.Layer) *nn.Dense {
	switch v := l.(type) {
	case *nn.Dense:
		return v
	case *nn.Sequential:
		for i := len(v.Layers) - 1; i >= 0; i-- {
			if d := lastDense(v.Layers[i]); d != nil {
				return d
			}
		}
	}
	return nil
}

// TemperatureScale fits a per-stage softmax temperature on val by grid
// search minimizing ECE — the standard post-hoc baseline [11], included
// as an extension comparator. It returns per-stage temperatures; apply
// them with ApplyTemperature.
func TemperatureScale(m *staged.Model, val *dataset.Set, bins int) ([]float64, error) {
	if bins < 1 {
		return nil, fmt.Errorf("calib: bins %d must be positive", bins)
	}
	stages := m.NumStages()
	// Collect logits per stage once: softmax temperature on log p equals
	// temperature on logits.
	logitsPerStage, labels := stageLogits(m, val)
	temps := make([]float64, stages)
	grid := []float64{0.5, 0.67, 0.8, 1, 1.25, 1.5, 2, 3, 4}
	confs := make([]float64, val.Len())
	correct := make([]bool, val.Len())
	probs := tensor.NewMatrix(val.Len(), m.Classes)
	scaled := tensor.NewMatrix(val.Len(), m.Classes)
	for s, z := range logitsPerStage {
		bestT, bestE := 1.0, math.Inf(1)
		for _, t := range grid {
			for i, v := range z.Data {
				scaled.Data[i] = v / t
			}
			readConfs(confs, correct, probs, scaled, labels)
			e, err := ECE(confs, correct, bins)
			if err != nil {
				return nil, err
			}
			if e < bestE {
				bestE, bestT = e, t
			}
		}
		temps[s] = bestT
	}
	return temps, nil
}

// EvalWithTemperature evaluates the model with per-stage temperatures
// applied to the exit probabilities.
func EvalWithTemperature(m *staged.Model, set *dataset.Set, temps []float64) (*StageEval, error) {
	stages := m.NumStages()
	if len(temps) != stages {
		return nil, fmt.Errorf("calib: %d temperatures for %d stages", len(temps), stages)
	}
	ev := newStageEval(stages, set.Len())
	logitsPerStage, labels := stageLogits(m, set)
	probs := tensor.NewMatrix(set.Len(), m.Classes)
	for s, z := range logitsPerStage {
		for i := range z.Data {
			z.Data[i] /= temps[s]
		}
		readConfs(ev.Confs[s], ev.Correct[s], probs, z, labels)
	}
	return ev, nil
}

func newStageEval(stages, n int) *StageEval {
	ev := &StageEval{
		Confs:   make([][]float64, stages),
		Correct: make([][]bool, stages),
	}
	for s := 0; s < stages; s++ {
		ev.Confs[s] = make([]float64, n)
		ev.Correct[s] = make([]bool, n)
	}
	return ev
}

// reseedDropout walks the model's head layers and reseeds dropout RNGs so
// MC evaluation is deterministic given seed.
func reseedDropout(m *staged.Model, seed int64) {
	i := int64(0)
	var walk func(l nn.Layer)
	walk = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.Dropout:
			v.Reseed(seed + i)
			i++
		case *nn.Sequential:
			for _, c := range v.Layers {
				walk(c)
			}
		case *nn.Residual:
			walk(v.Body)
		}
	}
	walk(m.Stem)
	for _, s := range m.Stages {
		walk(s.Body)
		walk(s.Head)
	}
}

// setDropoutRate overrides the drop rate of every dropout layer
// reachable from root.
func setDropoutRate(root nn.Layer, rate float64) {
	switch l := root.(type) {
	case *nn.Dropout:
		l.Rate = rate
	case *nn.Sequential:
		for _, c := range l.Layers {
			setDropoutRate(c, rate)
		}
	case *nn.Residual:
		setDropoutRate(l.Body, rate)
	}
}
