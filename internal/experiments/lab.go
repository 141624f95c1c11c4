// Package experiments regenerates every table and figure of the paper's
// evaluation: it trains the paper-scale staged model on SynthCIFAR,
// calibrates it, fits the GP confidence predictors, and drives the
// scheduler simulations, the profiler, and the collaborative-camera
// experiments. Its tests print each artifact beside the paper's values
// and gate Figure 2, Tables II and III and Figure 4 (paper_test.go):
// go test -v -run TestPaper ./internal/experiments.
package experiments

import (
	"fmt"
	"math/rand"

	"eugene/internal/calib"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/staged"
)

// LabConfig bundles everything needed to set up the shared model-based
// experiments (Figure 2, Tables II and III, Figure 4).
type LabConfig struct {
	Data  dataset.SynthConfig
	Model staged.Config
	Train staged.TrainConfig
	Calib calib.EntropyCalibConfig
	GP    sched.GPPredictorConfig
	// MCPasses is the RDeepSense Monte-Carlo sample count.
	MCPasses int
	// MCRate is the Monte-Carlo drop rate (0 keeps trained rates).
	MCRate float64
	// CalibFraction of the test split becomes the calibration set; the
	// rest is the report holdout.
	CalibFraction float64
	// Seed drives model init and all derived randomness.
	Seed int64
}

// DefaultLabConfig is the paper-scale configuration: a 3-stage residual
// network on SynthCIFAR, sized so the full experiment suite runs in
// minutes of CPU time.
func DefaultLabConfig() LabConfig {
	data := dataset.DefaultSynthConfig()
	data.Dim = 96
	data.TrainSize = 4000
	data.TestSize = 2000
	// Hard enough that depth matters and the overfit network is
	// measurably overconfident (Figure 2's uncalibrated diagram).
	data.ModesPerClass = 5
	data.Overlap = 0.3
	data.NoiseLo = 1.8
	data.NoiseHi = 4.6
	model := staged.DefaultConfig(data.Dim, data.Classes)
	model.Hidden = 64
	// Thin early exit heads (the paper's "thin softmax function
	// layer"): bottlenecked stage-1/2 heads cap shallow-exit accuracy
	// without constraining the trunk, giving the per-stage accuracy
	// gradient of Figure 4 (holdout accuracies are recorded in
	// paper_test.go, per kernel path).
	model.HeadBottlenecks = []int{5, 8, 0}
	model.HeadDropout = 0.25
	train := staged.DefaultTrainConfig()
	train.Epochs = 40
	return LabConfig{
		Data:          data,
		Model:         model,
		Train:         train,
		Calib:         calib.DefaultEntropyCalibConfig(),
		GP:            sched.DefaultGPPredictorConfig(),
		MCPasses:      20,
		MCRate:        0,
		CalibFraction: 0.5,
		Seed:          17,
	}
}

// QuickLabConfig is a scaled-down configuration for unit tests.
func QuickLabConfig() LabConfig {
	cfg := DefaultLabConfig()
	cfg.Data.Dim = 24
	cfg.Data.TrainSize = 600
	cfg.Data.TestSize = 400
	cfg.Data.ModesPerClass = 2
	cfg.Data.Overlap = 0.2
	cfg.Data.NoiseLo = 0.6
	cfg.Data.NoiseHi = 1.6
	cfg.Model = staged.DefaultConfig(cfg.Data.Dim, cfg.Data.Classes)
	cfg.Model.Hidden = 32
	cfg.Model.StageWidths = nil
	cfg.Model.BlocksPerStage = 1
	cfg.Train.Epochs = 12
	cfg.Calib.Epochs = 6
	cfg.Calib.Alphas = []float64{0.25, 1}
	cfg.MCPasses = 8
	return cfg
}

// Lab holds the trained artifacts shared by the model-based experiments.
type Lab struct {
	Cfg LabConfig
	// Model is the trained, uncalibrated staged network.
	Model *staged.Model
	// Calibrated is the entropy-calibrated network (paper Eq. 4).
	Calibrated *staged.Model
	// Alpha is the chosen entropy-regularization weight.
	Alpha float64
	// Train is the training split; CalibSet the calibration split;
	// Holdout the untouched reporting split.
	Train, CalibSet, Holdout *dataset.Set
	// Pred is the GP predictor fit on the calibrated model's
	// training-set confidence curves.
	Pred *sched.GPPredictor
}

// NewLab trains and calibrates the shared model. Deterministic given
// the config.
func NewLab(cfg LabConfig) (*Lab, error) {
	train, test, err := dataset.SynthCIFAR(cfg.Data, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating data: %w", err)
	}
	calibN := int(cfg.CalibFraction * float64(test.Len()))
	if calibN < 4 || calibN >= test.Len() {
		return nil, fmt.Errorf("experiments: calibration fraction %v leaves %d samples", cfg.CalibFraction, calibN)
	}
	calibSet, holdout := test.Split(calibN)

	model, err := staged.New(rand.New(rand.NewSource(cfg.Seed+1)), cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("experiments: building model: %w", err)
	}
	if _, err := model.Train(cfg.Train, train); err != nil {
		return nil, fmt.Errorf("experiments: training: %w", err)
	}
	calibrated, alpha, err := calib.EntropyCalibrate(model, calibSet, cfg.Calib)
	if err != nil {
		return nil, fmt.Errorf("experiments: calibrating: %w", err)
	}
	curves, _ := calibrated.ConfidenceCurves(train)
	pred, err := sched.NewGPPredictor(curves, cfg.GP)
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting GP predictor: %w", err)
	}
	return &Lab{
		Cfg:        cfg,
		Model:      model,
		Calibrated: calibrated,
		Alpha:      alpha,
		Train:      train,
		CalibSet:   calibSet,
		Holdout:    holdout,
		Pred:       pred,
	}, nil
}

// StageAccuracies reports per-stage holdout accuracy of the calibrated
// model — the raw material of Figure 4's depth/accuracy trade-off.
func (l *Lab) StageAccuracies() []float64 {
	return l.Calibrated.EvalAllStages(l.Holdout)
}
