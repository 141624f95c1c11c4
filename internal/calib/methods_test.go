package calib

import (
	"math"
	"math/rand"
	"testing"

	"eugene/internal/dataset"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

// trainedModel trains a small staged model that overfits enough to be
// measurably overconfident, shared across the tests in this file.
func trainedModel(t *testing.T) (*staged.Model, *dataset.Set, *dataset.Set) {
	t.Helper()
	dcfg := dataset.SynthConfig{
		Classes: 4, Dim: 12, ModesPerClass: 2,
		TrainSize: 500, TestSize: 300,
		NoiseLo: 0.8, NoiseHi: 2.2, Overlap: 0.4,
	}
	train, test, err := dataset.SynthCIFAR(dcfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := staged.Config{In: 12, Hidden: 32, Classes: 4, StageCount: 3, BlocksPerStage: 1, HeadDropout: 0.15}
	m, err := staged.New(rand.New(rand.NewSource(5)), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := staged.DefaultTrainConfig()
	tcfg.Epochs = 40
	if _, err := m.Train(tcfg, train); err != nil {
		t.Fatal(err)
	}
	return m, train, test
}

func TestEvalUncalibratedShape(t *testing.T) {
	m, _, test := trainedModel(t)
	ev := EvalUncalibrated(m, test)
	if len(ev.Confs) != 3 || len(ev.Confs[0]) != test.Len() {
		t.Fatalf("eval shape %dx%d", len(ev.Confs), len(ev.Confs[0]))
	}
	per, err := ev.ECEPerStage(10)
	if err != nil {
		t.Fatal(err)
	}
	for s, e := range per {
		if e < 0 || e > 1 {
			t.Fatalf("stage %d ECE %v out of range", s, e)
		}
	}
}

func TestOverfitModelIsOverconfident(t *testing.T) {
	m, _, test := trainedModel(t)
	ev := EvalUncalibrated(m, test)
	last := len(ev.Confs) - 1
	dir := Diagnose(ev.Confs[last], ev.Correct[last], 0.005)
	if dir != Overconfident {
		t.Fatalf("expected the overfit network to be overconfident, got %v (acc=%.3f conf=%.3f)",
			dir, MeanAccuracy(ev.Correct[last]), MeanConfidence(ev.Confs[last]))
	}
}

func TestMCDropoutDeterministicAndDistinct(t *testing.T) {
	m, _, test := trainedModel(t)
	small := test.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7})
	a := EvalMCDropout(m, small, 5, 77)
	b := EvalMCDropout(m, small, 5, 77)
	for s := range a.Confs {
		for i := range a.Confs[s] {
			if a.Confs[s][i] != b.Confs[s][i] {
				t.Fatalf("MC dropout not deterministic at stage %d sample %d", s, i)
			}
		}
	}
	det := EvalUncalibrated(m, small)
	var differs bool
	for s := range a.Confs {
		for i := range a.Confs[s] {
			if math.Abs(a.Confs[s][i]-det.Confs[s][i]) > 1e-9 {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("MC dropout evaluation identical to deterministic")
	}
}

func TestMCDropoutReducesConfidence(t *testing.T) {
	m, _, test := trainedModel(t)
	det := EvalUncalibrated(m, test)
	mc := EvalMCDropout(m, test, 10, 3)
	last := len(det.Confs) - 1
	if MeanConfidence(mc.Confs[last]) >= MeanConfidence(det.Confs[last]) {
		t.Fatalf("MC dropout should shrink mean confidence: %v vs %v",
			MeanConfidence(mc.Confs[last]), MeanConfidence(det.Confs[last]))
	}
}

func TestEntropyCalibrateImprovesECE(t *testing.T) {
	m, _, test := trainedModel(t)
	val, holdout := test.Split(150)
	before, err := EvalUncalibrated(m, holdout).MeanECE(10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEntropyCalibConfig()
	cfg.Epochs = 8
	cfg.Alphas = []float64{0.25, 0.5, 1}
	cal, alpha, err := EntropyCalibrate(m, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := EvalUncalibrated(cal, holdout).MeanECE(10)
	if err != nil {
		t.Fatal(err)
	}
	if after > before+0.02 {
		t.Fatalf("calibration worsened holdout ECE: %.4f → %.4f (alpha=%v)", before, after, alpha)
	}
	// The overconfident case must pick a non-positive alpha (entropy
	// reward), per the sign rule.
	if alpha > 0 {
		t.Fatalf("alpha = %v, want ≤ 0 for an overconfident model", alpha)
	}
}

func TestEntropyCalibrateDoesNotMutateInput(t *testing.T) {
	m, _, test := trainedModel(t)
	val, _ := test.Split(100)
	var snapshot []float64
	for _, p := range m.Params() {
		snapshot = append(snapshot, p.Value...)
	}
	cfg := DefaultEntropyCalibConfig()
	cfg.Epochs = 2
	cfg.Alphas = []float64{0.2}
	if _, _, err := EntropyCalibrate(m, val, cfg); err != nil {
		t.Fatal(err)
	}
	var i int
	for _, p := range m.Params() {
		for _, v := range p.Value {
			if v != snapshot[i] {
				t.Fatal("EntropyCalibrate mutated the input model")
			}
			i++
		}
	}
}

func TestEntropyCalibrateRejectsBadConfig(t *testing.T) {
	m, _, test := trainedModel(t)
	cfg := DefaultEntropyCalibConfig()
	cfg.Alphas = nil
	if _, _, err := EntropyCalibrate(m, test, cfg); err == nil {
		t.Fatal("expected config error")
	}
	cfg = DefaultEntropyCalibConfig()
	tiny := test.Subset([]int{0, 1})
	if _, _, err := EntropyCalibrate(m, tiny, cfg); err == nil {
		t.Fatal("expected tiny-set error")
	}
}

func TestTemperatureScale(t *testing.T) {
	m, _, test := trainedModel(t)
	val, holdout := test.Split(150)
	temps, err := TemperatureScale(m, val, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != m.NumStages() {
		t.Fatalf("got %d temps", len(temps))
	}
	for s, tv := range temps {
		if tv <= 0 {
			t.Fatalf("stage %d temperature %v", s, tv)
		}
	}
	before, _ := EvalUncalibrated(m, holdout).MeanECE(10)
	ev, err := EvalWithTemperature(m, holdout, temps)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := ev.MeanECE(10)
	// Temperature scaling fit on val should not catastrophically hurt
	// holdout ECE; typically it improves it.
	if after > before+0.05 {
		t.Fatalf("temperature scaling hurt ECE: %.4f → %.4f", before, after)
	}
	if _, err := EvalWithTemperature(m, holdout, temps[:1]); err == nil {
		t.Fatal("expected temperature-count error")
	}
}

// oldFitHeadScale is fitHeadScale as it was before it took one log per
// class: tensor.Entropy for H, then math.Log again for each class's
// gradient term. It is the reference the new one must match bit for bit.
func oldFitHeadScale(logits [][]float64, labels []int, alpha float64, iters int, lr float64) float64 {
	scale := 1.0
	classes := len(logits[0])
	probs := tensor.NewMatrix(1, classes)
	scaled := tensor.NewMatrix(1, classes)
	for it := 0; it < iters; it++ {
		var grad float64
		for i, z := range logits {
			for c, v := range z {
				scaled.Data[c] = scale * v
			}
			tensor.Softmax(probs, scaled)
			p := probs.Row(0)
			h := tensor.Entropy(p)
			for c := range p {
				g := p[c]
				if c == labels[i] {
					g -= 1
				}
				if alpha != 0 {
					lp := math.Log(math.Max(p[c], 1e-12))
					g += alpha * (-p[c] * (lp + h))
				}
				grad += g * z[c]
			}
		}
		grad /= float64(len(logits))
		scale -= lr * grad
		if scale < 0.01 {
			scale = 0.01
		}
	}
	return scale
}

// rowsMatrix stacks equal-length rows into a matrix.
func rowsMatrix(rows [][]float64) *tensor.Matrix {
	m := tensor.NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// TestFitHeadScaleMatchesTwoLogs: on random logits from mild to
// saturated — rows where the losing classes' probabilities fall below
// 1e-12 and, at the largest spreads, underflow to exactly zero — the
// fitted scale is the old formula's, bit for bit, at every α sign.
func TestFitHeadScaleMatchesTwoLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, spread := range []float64{0.5, 3, 30, 400} {
		logits := make([][]float64, 40)
		labels := make([]int, len(logits))
		for i := range logits {
			logits[i] = make([]float64, 6)
			for c := range logits[i] {
				logits[i][c] = spread * rng.NormFloat64()
			}
			labels[i] = rng.Intn(6)
		}
		for _, alpha := range []float64{0, 0.1, -0.1, 0.5, -2} {
			got, want := fitHeadScale(rowsMatrix(logits), labels, alpha, 60, 0.03), oldFitHeadScale(logits, labels, alpha, 60, 0.03)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("spread %v α %v: scale %v, the two-log formula gives %v", spread, alpha, got, want)
			}
		}
	}
}

// TestEntropyCalibrateAlphaPinned: on this file's fixture, at
// TestEntropyCalibrateImprovesECE's grid, the chosen α is the one the
// parent commit of the one-log change (11f1ca5) chose, -0.5, on both
// kernel paths (AVX2; -tags noasm).
func TestEntropyCalibrateAlphaPinned(t *testing.T) {
	m, _, test := trainedModel(t)
	val, _ := test.Split(150)
	cfg := DefaultEntropyCalibConfig()
	cfg.Epochs = 8
	cfg.Alphas = []float64{0.25, 0.5, 1}
	_, alpha, err := EntropyCalibrate(m, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if alpha != -0.5 {
		t.Fatalf("α = %v, the parent chose -0.5", alpha)
	}
}
