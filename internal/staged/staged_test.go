package staged

import (
	"math"
	"math/rand"
	"testing"

	"eugene/internal/dataset"
	"eugene/internal/nn"
	"eugene/internal/tensor"
)

func tinyConfig() Config {
	return Config{In: 8, Hidden: 16, Classes: 3, StageCount: 3, BlocksPerStage: 1, HeadDropout: 0.1}
}

func tinyData(t *testing.T, n int) *dataset.Set {
	t.Helper()
	cfg := dataset.SynthConfig{
		Classes: 3, Dim: 8, ModesPerClass: 2,
		TrainSize: n, TestSize: 1,
		NoiseLo: 0.3, NoiseHi: 1.2, Overlap: 0.2,
	}
	train, _, err := dataset.SynthCIFAR(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	return train
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero in", func(c *Config) { c.In = 0 }},
		{"one class", func(c *Config) { c.Classes = 1 }},
		{"zero stages", func(c *Config) { c.StageCount = 0 }},
		{"zero blocks", func(c *Config) { c.BlocksPerStage = 0 }},
		{"dropout 1", func(c *Config) { c.HeadDropout = 1 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.mutate(&cfg)
			if _, err := New(rand.New(rand.NewSource(1)), cfg); err == nil {
				t.Fatal("expected config error")
			}
		})
	}
}

func TestPredictShapes(t *testing.T) {
	m, err := New(rand.New(rand.NewSource(1)), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	outs := m.Predict(x, 2)
	if len(outs) != 3 {
		t.Fatalf("got %d stage outputs, want 3", len(outs))
	}
	for i, o := range outs {
		if o.Stage != i {
			t.Fatalf("stage index %d at position %d", o.Stage, i)
		}
		if len(o.Probs) != 3 {
			t.Fatalf("probs len %d", len(o.Probs))
		}
		var sum float64
		for _, p := range o.Probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("stage %d probs sum %v", i, sum)
		}
		if o.Conf < 1.0/3-1e-9 || o.Conf > 1 {
			t.Fatalf("stage %d confidence %v outside [1/3,1]", i, o.Conf)
		}
	}
}

func TestRunnerMatchesPredict(t *testing.T) {
	m, err := New(rand.New(rand.NewSource(2)), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := m.Predict(x, 2)
	r := m.NewRunner(x)
	for i := 0; i < 3; i++ {
		if r.Done() {
			t.Fatal("runner done early")
		}
		got := r.RunStage()
		if got.Pred != want[i].Pred || math.Abs(got.Conf-want[i].Conf) > 1e-9 {
			t.Fatalf("stage %d: runner (%d,%v) vs predict (%d,%v)",
				i, got.Pred, got.Conf, want[i].Pred, want[i].Conf)
		}
	}
	if !r.Done() {
		t.Fatal("runner not done after all stages")
	}
}

// TestInterleavedRunners verifies that two runners sharing one model can
// interleave stage execution without corrupting each other — the
// scheduler does exactly this.
func TestInterleavedRunners(t *testing.T) {
	m, err := New(rand.New(rand.NewSource(4)), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	xa := make([]float64, 8)
	xb := make([]float64, 8)
	for i := range xa {
		xa[i] = rng.NormFloat64()
		xb[i] = rng.NormFloat64()
	}
	wantA := m.Predict(xa, 2)
	wantB := m.Predict(xb, 2)
	ra := m.NewRunner(xa)
	rb := m.NewRunner(xb)
	// Interleave: a0 b0 b1 a1 a2 b2.
	order := []struct {
		r    *Runner
		want []StageOutput
	}{
		{ra, wantA}, {rb, wantB}, {rb, wantB}, {ra, wantA}, {ra, wantA}, {rb, wantB},
	}
	for step, o := range order {
		idx := o.r.NextStage()
		got := o.r.RunStage()
		if got.Pred != o.want[idx].Pred || math.Abs(got.Conf-o.want[idx].Conf) > 1e-9 {
			t.Fatalf("interleaved step %d stage %d: got (%d,%v) want (%d,%v)",
				step, idx, got.Pred, got.Conf, o.want[idx].Pred, o.want[idx].Conf)
		}
	}
}

func TestRunnerPanicsAfterDone(t *testing.T) {
	m, _ := New(rand.New(rand.NewSource(6)), tinyConfig())
	r := m.NewRunner(make([]float64, 8))
	for !r.Done() {
		r.RunStage()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on RunStage after done")
		}
	}()
	r.RunStage()
}

func TestTrainImprovesAccuracyAndDepthHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	train := tinyData(t, 600)
	m, err := New(rand.New(rand.NewSource(7)), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := m.EvalStageAccuracy(train, 2)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 25
	if _, err := m.Train(cfg, train); err != nil {
		t.Fatal(err)
	}
	accs := m.EvalAllStages(train)
	if accs[2] < before+0.2 {
		t.Fatalf("training did not improve: before %v after %v", before, accs[2])
	}
	if accs[2] < 0.6 {
		t.Fatalf("final stage accuracy %v too low", accs[2])
	}
	// Depth must help (or at least not hurt materially): the last
	// stage should be at least as accurate as the first.
	if accs[2]+0.02 < accs[0] {
		t.Fatalf("deeper stage worse: %v vs %v", accs[2], accs[0])
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	train := tinyData(t, 10)
	m, _ := New(rand.New(rand.NewSource(8)), tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 0
	if _, err := m.Train(cfg, train); err == nil {
		t.Fatal("expected error for zero epochs")
	}
	cfg = DefaultTrainConfig()
	other := tinyConfig()
	other.In = 5
	m2, _ := New(rand.New(rand.NewSource(8)), other)
	if _, err := m2.Train(cfg, train); err == nil {
		t.Fatal("expected error for width mismatch")
	}
	// A label outside the classes is an error, not the loss's panic.
	bad := train.Subset([]int{0, 1, 2})
	bad.Labels[1] = 7
	if _, err := m.Train(cfg, bad); err == nil {
		t.Fatal("expected error for label 7 of 3 classes")
	}
}

func TestCloneIndependentPredictions(t *testing.T) {
	m, _ := New(rand.New(rand.NewSource(9)), tinyConfig())
	c := m.Clone()
	x := make([]float64, 8)
	for i := range x {
		x[i] = 0.5
	}
	a := m.Predict(x, 2)
	b := c.Predict(x, 2)
	for i := range a {
		if a[i].Pred != b[i].Pred || math.Abs(a[i].Conf-b[i].Conf) > 1e-12 {
			t.Fatalf("clone prediction differs at stage %d", i)
		}
	}
	// Mutating the clone must not affect the original.
	cp := c.Params()
	for i := range cp[0].Value {
		cp[0].Value[i] = 0
	}
	a2 := m.Predict(x, 2)
	for i := range a {
		if math.Abs(a2[i].Conf-a[i].Conf) > 1e-12 {
			t.Fatal("mutating clone changed original predictions")
		}
	}
}

func TestConfidenceCurvesShape(t *testing.T) {
	train := tinyData(t, 40)
	m, _ := New(rand.New(rand.NewSource(10)), tinyConfig())
	conf, correct := m.ConfidenceCurves(train)
	if conf.Rows != 40 || conf.Cols != 3 {
		t.Fatalf("curves %dx%d", conf.Rows, conf.Cols)
	}
	if len(correct) != 40 || len(correct[0]) != 3 {
		t.Fatalf("correctness shape %dx%d", len(correct), len(correct[0]))
	}
	for i := 0; i < conf.Rows; i++ {
		for j := 0; j < 3; j++ {
			v := conf.At(i, j)
			if v < 1.0/3-1e-9 || v > 1 {
				t.Fatalf("confidence %v outside [1/3,1]", v)
			}
		}
	}
}

func TestHeadParamsSubset(t *testing.T) {
	m, _ := New(rand.New(rand.NewSource(12)), tinyConfig())
	all := len(m.Params())
	heads := len(m.HeadParams())
	if heads == 0 || heads >= all {
		t.Fatalf("head params %d of %d", heads, all)
	}
}

// TestDeterministicTraining: same seed → identical weights after training.
func TestDeterministicTraining(t *testing.T) {
	train := tinyData(t, 100)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	run := func() []float64 {
		m, _ := New(rand.New(rand.NewSource(13)), tinyConfig())
		if _, err := m.Train(cfg, train); err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, p := range m.Params() {
			flat = append(flat, p.Value...)
		}
		return flat
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training not deterministic at weight %d", i)
		}
	}
}

// Verify the staged model's heads can be driven by nn.SetMCDropout.
func TestMCDropoutChangesHeadOutputs(t *testing.T) {
	cfg := tinyConfig()
	cfg.HeadDropout = 0.5
	m, _ := New(rand.New(rand.NewSource(14)), cfg)
	x := make([]float64, 8)
	for i := range x {
		x[i] = 1
	}
	base := m.Predict(x, 0)[0]
	for _, s := range m.Stages {
		nn.SetMCDropout(s.Head, true)
	}
	var differed bool
	for trial := 0; trial < 10; trial++ {
		got := m.Predict(x, 0)[0]
		if math.Abs(got.Conf-base.Conf) > 1e-9 {
			differed = true
			break
		}
	}
	if !differed {
		t.Fatal("MC dropout never changed the head output")
	}
}

// TestPredictRowsMatchesPredict holds the batched evaluation pass to the
// one-row reference bit for bit — prediction, confidence and every
// probability at every stage — at odd row counts inside one block and
// across block boundaries, on the served trunk's shape (thin bottleneck
// heads, dropout that is the identity at inference).
func TestPredictRowsMatchesPredict(t *testing.T) {
	m, err := New(rand.New(rand.NewSource(12)), Config{
		In: 32, Hidden: 64, Classes: 10, StageCount: 3, BlocksPerStage: 2,
		HeadBottlenecks: []int{8, 12, 0}, HeadDropout: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for _, rows := range []int{1, 3, 7, 63, 64, 65, 131} {
		x := tensor.NewMatrix(rows, m.In)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		got := m.PredictRows(x)
		if len(got) != rows {
			t.Fatalf("%d rows in, %d out", rows, len(got))
		}
		for i, outs := range got {
			want := m.Predict(x.Row(i), m.NumStages()-1)
			for s, o := range outs {
				w := want[s]
				if o.Stage != s || o.Pred != w.Pred || math.Float64bits(o.Conf) != math.Float64bits(w.Conf) || len(o.Probs) != len(w.Probs) {
					t.Fatalf("%d rows, row %d stage %d: batched %+v, Predict %+v", rows, i, s, o, w)
				}
				for c, p := range o.Probs {
					if math.Float64bits(p) != math.Float64bits(w.Probs[c]) {
						t.Fatalf("%d rows, row %d stage %d: P(class %d) = %v batched, %v by Predict", rows, i, s, c, p, w.Probs[c])
					}
				}
			}
		}
	}
}

// Config.ParamCount counts what New builds, for every shape option.
func TestParamCountMatchesModel(t *testing.T) {
	ladder := Config{In: 5, Hidden: 8, Classes: 4, StageCount: 3, BlocksPerStage: 2, StageWidths: []int{4, 8, 8}}
	necks := ladder
	necks.HeadBottlenecks = []int{3, 0, 2}
	for _, cfg := range []Config{tinyConfig(), DefaultConfig(32, 10), {In: 1, Hidden: 1, Classes: 2, StageCount: 1, BlocksPerStage: 1}, ladder, necks} {
		m, err := New(rand.New(rand.NewSource(1)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		built := nn.ParamCount(m.Stem)
		for _, s := range m.Stages {
			built += nn.ParamCount(s.Body) + nn.ParamCount(s.Head)
		}
		if got := cfg.ParamCount(); got != float64(built) {
			t.Fatalf("%+v: ParamCount %v, New built %d", cfg, got, built)
		}
	}
}
