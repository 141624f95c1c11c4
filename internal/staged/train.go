package staged

import (
	"fmt"
	"math/rand"

	"eugene/internal/dataset"
	"eugene/internal/nn"
	"eugene/internal/tensor"
)

// TrainConfig controls deep-supervision training of a staged model.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// WeightDecay is the L2 penalty coefficient.
	WeightDecay float64
	// LRDecay multiplies the learning rate after each epoch (1 = none).
	LRDecay float64
	// Seed drives batch shuffling.
	Seed int64
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(epoch int, loss, acc float64)
}

// DefaultTrainConfig returns settings that fit SynthCIFAR at paper scale
// in a few seconds of CPU time.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:      30,
		BatchSize:   32,
		LR:          0.05,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		LRDecay:     0.97,
		Seed:        1,
	}
}

// Train fits the model with joint deep supervision: the loss is the sum
// of per-stage cross-entropies, so every exit classifier learns
// simultaneously (paper Section II-E / Figure 3). Returns the final
// epoch's mean training loss.
func (m *Model) Train(cfg TrainConfig, train *dataset.Set) (float64, error) {
	if cfg.Epochs < 1 || cfg.BatchSize < 1 {
		return 0, fmt.Errorf("staged: bad train config epochs=%d batch=%d", cfg.Epochs, cfg.BatchSize)
	}
	if train.X.Cols != m.In {
		return 0, fmt.Errorf("staged: training data width %d, model expects %d", train.X.Cols, m.In)
	}
	if err := train.CheckLabels(m.Classes); err != nil {
		return 0, fmt.Errorf("staged: %w", err) // the loss would panic on it
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	params := m.Params()
	data := train.Subset(seq(train.Len())) // private copy; Shuffle mutates
	// Each step's weight gradients run on a lane beside the backward
	// chain, which none of them feeds, under nn.UseLane's rule: the step
	// joins the lane before the norm reads them.
	var lane tensor.Lane
	m.useLane(&lane)
	defer func() {
		lane.Wait() // returns the helper if a step panicked mid-lane
		m.useLane(nil)
	}()
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		data.Shuffle(rng)
		var epochLoss float64
		var batches int
		data.Batches(cfg.BatchSize, func(x *tensor.Matrix, labels []int) {
			logits := m.ForwardAll(x, true)
			grads := make([]*tensor.Matrix, len(logits))
			var loss float64
			for i, lg := range logits {
				g := tensor.NewMatrix(lg.Rows, lg.Cols)
				loss += nn.SoftmaxCE(g, lg, labels, 0)
				grads[i] = g
			}
			lane.Open()
			m.Backward(grads)
			lane.Wait()
			opt.ClipStep(params, 5)
			epochLoss += loss
			batches++
		})
		lastLoss = epochLoss / float64(batches)
		if cfg.Verbose != nil {
			acc := m.EvalAllStages(train)[m.NumStages()-1]
			cfg.Verbose(epoch, lastLoss, acc)
		}
		opt.LR *= cfg.LRDecay
	}
	return lastLoss, nil
}

// EvalAllStages returns per-stage accuracy over the set in one pass.
func (m *Model) EvalAllStages(set *dataset.Set) []float64 {
	acc := make([]float64, m.NumStages())
	if set.Len() == 0 {
		return acc
	}
	correct := make([]int, m.NumStages())
	for i, outs := range m.PredictRows(set.X) {
		for s, o := range outs {
			if o.Pred == set.Labels[i] {
				correct[s]++
			}
		}
	}
	for s := range acc {
		acc[s] = float64(correct[s]) / float64(set.Len())
	}
	return acc
}

// ConfidenceCurves runs the full network over the set and returns the
// per-sample confidence at every stage (rows: samples, cols: stages) plus
// per-stage correctness indicators. These curves train the Gaussian-
// process confidence predictors of Section III-B.
func (m *Model) ConfidenceCurves(set *dataset.Set) (conf *tensor.Matrix, correct [][]bool) {
	s := m.NumStages()
	conf = tensor.NewMatrix(set.Len(), s)
	correct = make([][]bool, set.Len())
	for i, outs := range m.PredictRows(set.X) {
		correct[i] = make([]bool, s)
		for j, o := range outs {
			conf.Set(i, j, o.Conf)
			correct[i][j] = o.Pred == set.Labels[i]
		}
	}
	return conf, correct
}

// useLane points every dense layer of the model at lane (nil: none).
func (m *Model) useLane(lane *tensor.Lane) {
	nn.UseLane(m.Stem, lane)
	for _, s := range m.Stages {
		nn.UseLane(s.Body, lane)
		nn.UseLane(s.Head, lane)
	}
}

func seq(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
