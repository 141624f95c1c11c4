package profiler

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeviceModelReproducesTableI(t *testing.T) {
	d := DefaultDevice()
	for _, cfg := range TableI() {
		got := d.TimeMS(ShapeFor(cfg.In, cfg.Out), nil)
		relErr := math.Abs(got-cfg.PaperTimeMS) / cfg.PaperTimeMS
		if relErr > 0.05 {
			t.Errorf("%s: modeled %.1f ms vs paper %.1f ms (%.1f%% off)",
				cfg.Name, got, cfg.PaperTimeMS, 100*relErr)
		}
	}
}

// TestTableIQualitativeShape checks the paper's two headline facts:
// equal-FLOPs layers differ in time (CNN1 vs CNN2), and a layer with
// more FLOPs can be faster (CNN4 vs CNN3).
func TestTableIQualitativeShape(t *testing.T) {
	d := DefaultDevice()
	cnn1 := d.TimeMS(ShapeFor(8, 32), nil)
	cnn2 := d.TimeMS(ShapeFor(32, 8), nil)
	cnn3 := d.TimeMS(ShapeFor(66, 32), nil)
	cnn4 := d.TimeMS(ShapeFor(43, 64), nil)
	if ShapeFor(8, 32).FLOPs() != ShapeFor(32, 8).FLOPs() {
		t.Fatal("CNN1 and CNN2 must have equal FLOPs")
	}
	if cnn2 < 2*cnn1 {
		t.Fatalf("CNN2 (%.1f) should take ≥2× CNN1 (%.1f) at equal FLOPs", cnn2, cnn1)
	}
	if ShapeFor(66, 32).FLOPs() >= ShapeFor(43, 64).FLOPs() {
		t.Fatal("CNN3 must have fewer FLOPs than CNN4")
	}
	if cnn3 <= cnn4 {
		t.Fatalf("CNN3 (%.1f) should be slower than CNN4 (%.1f) despite fewer FLOPs", cnn3, cnn4)
	}
}

func TestDeviceModelNoise(t *testing.T) {
	d := DefaultDevice()
	d.NoiseStd = 0.05
	rng := rand.New(rand.NewSource(1))
	base := DefaultDevice().TimeMS(ShapeFor(16, 16), nil)
	var differs bool
	for i := 0; i < 10; i++ {
		got := d.TimeMS(ShapeFor(16, 16), rng)
		if got < 0 {
			t.Fatalf("negative time %v", got)
		}
		if math.Abs(got-base) > 1e-9 {
			differs = true
		}
	}
	if !differs {
		t.Fatal("noise had no effect")
	}
}

func TestCollectMeasurements(t *testing.T) {
	d := DefaultDevice()
	ms := CollectMeasurements(d, []int{8, 16}, []int{8, 16, 32}, 1)
	if len(ms) != 6 {
		t.Fatalf("got %d measurements", len(ms))
	}
	for _, m := range ms {
		if m.TimeMS <= 0 || m.FLOPs <= 0 {
			t.Fatalf("degenerate measurement %+v", m)
		}
	}
}

func sweep() []int {
	var v []int
	for c := 4; c <= 96; c += 4 {
		v = append(v, c)
	}
	return v
}

func TestProfilerLearnsDevice(t *testing.T) {
	d := DefaultDevice()
	d.NoiseStd = 0.02
	train := CollectMeasurements(d, sweep(), sweep(), 2)
	p, err := FitProfiler(train, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Held-out configurations (not on the 4-multiple grid).
	exact := DefaultDevice()
	test := CollectMeasurements(exact, []int{6, 13, 27, 45, 70}, []int{6, 13, 27, 45, 70}, 3)
	if mape := p.MAPE(test); mape > 0.15 {
		t.Fatalf("profiler MAPE on held-out configs = %.3f, want <0.15", mape)
	}
	// A single global linear model must be substantially worse than the
	// piecewise tree — that is the paper's point about nonlinearity.
	flat, err := FitProfiler(train, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Leaves() != 1 {
		t.Fatalf("depth-0 profiler has %d leaves", flat.Leaves())
	}
	if p.Leaves() < 2 {
		t.Fatalf("tree profiler found only %d region(s)", p.Leaves())
	}
	if p.MAPE(test) >= flat.MAPE(test) {
		t.Fatalf("piecewise profiler (%.3f) should beat single linear model (%.3f)",
			p.MAPE(test), flat.MAPE(test))
	}
}

func TestProfilerPredictsTableIOrdering(t *testing.T) {
	d := DefaultDevice()
	train := CollectMeasurements(d, sweep(), sweep(), 4)
	p, err := FitProfiler(train, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	cnn1 := p.PredictMS(8, 32)
	cnn2 := p.PredictMS(32, 8)
	cnn3 := p.PredictMS(66, 32)
	cnn4 := p.PredictMS(43, 64)
	if !(cnn2 > cnn1) {
		t.Fatalf("learned profiler lost CNN2 > CNN1: %.1f vs %.1f", cnn2, cnn1)
	}
	if !(cnn3 > cnn4) {
		t.Fatalf("learned profiler lost CNN3 > CNN4: %.1f vs %.1f", cnn3, cnn4)
	}
}

func TestFitProfilerErrors(t *testing.T) {
	d := DefaultDevice()
	ms := CollectMeasurements(d, []int{8}, []int{8}, 1)
	if _, err := FitProfiler(ms, 4, 8); err == nil {
		t.Fatal("expected too-few-measurements error")
	}
	many := CollectMeasurements(d, sweep(), sweep(), 1)
	if _, err := FitProfiler(many, -1, 8); err == nil {
		t.Fatal("expected bad-depth error")
	}
	if _, err := FitProfiler(many, 3, 1); err == nil {
		t.Fatal("expected bad-leaf error")
	}
}

func TestSolve3(t *testing.T) {
	// x + y + z = 6; 2y + 5z = -4; 2x + 5y - z = 27 → x=5, y=3, z=-2.
	a := [3][3]float64{{1, 1, 1}, {0, 2, 5}, {2, 5, -1}}
	b := [3]float64{6, -4, 27}
	x := solve3(a, b)
	want := [3]float64{5, 3, -2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("solve3[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestPredictNonNegative(t *testing.T) {
	d := DefaultDevice()
	train := CollectMeasurements(d, sweep(), sweep(), 5)
	p, err := FitProfiler(train, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	for in := 1; in <= 128; in += 13 {
		for out := 1; out <= 128; out += 13 {
			if v := p.PredictMS(in, out); v < 0 {
				t.Fatalf("negative prediction at (%d,%d): %v", in, out, v)
			}
		}
	}
}

func TestConvShapeOutputDims(t *testing.T) {
	s := ConvShape{InChannels: 3, OutChannels: 4, Height: 8, Width: 10, Kernel: 3, Stride: 1, Pad: 1}
	if s.OutHeight() != 8 || s.OutWidth() != 10 {
		t.Fatalf("same-pad output = %dx%d, want 8x10", s.OutHeight(), s.OutWidth())
	}
	s.Stride = 2
	if s.OutHeight() != 4 || s.OutWidth() != 5 {
		t.Fatalf("stride-2 output = %dx%d, want 4x5", s.OutHeight(), s.OutWidth())
	}
}

func TestConvShapeFLOPs(t *testing.T) {
	// Table I configuration CNN1: 8 in, 32 out, 3x3, 224x224, same pad.
	// Under the standard 2·MACs convention this is 231.2 MFLOPs. (The
	// paper reports 452.4 M under its own convention; ratios between
	// configs are identical.)
	cnn1 := ConvShape{InChannels: 8, OutChannels: 32, Height: 224, Width: 224, Kernel: 3, Stride: 1, Pad: 1}
	cnn2 := ConvShape{InChannels: 32, OutChannels: 8, Height: 224, Width: 224, Kernel: 3, Stride: 1, Pad: 1}
	if math.Abs(cnn1.FLOPs()/1e6-231.2) > 1.0 {
		t.Fatalf("CNN1 FLOPs = %.1f M, want ≈231.2 M", cnn1.FLOPs()/1e6)
	}
	if cnn1.FLOPs() != cnn2.FLOPs() {
		t.Fatalf("CNN1 and CNN2 must have identical FLOPs: %v vs %v", cnn1.FLOPs(), cnn2.FLOPs())
	}
}
