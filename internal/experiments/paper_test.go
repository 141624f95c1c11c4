package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"eugene/internal/calib"
)

// The paper-fidelity gates: Figure 2, Tables II and III and Figure 4 on
// the paper-scale lab, each logged beside the paper's values. Run
//
//	go test -count=1 -v -run TestPaper ./internal/experiments
//
// to print them. The lab is deterministic, and every kernel path trains
// the same network: the SIMD kernels (AVX2 and AVX-512) and the portable
// build (-tags noasm) give the same bits, so the tables print the same.
// Each test asserts the paper's orderings that held when the kernel
// paths still trained apart (on both of them), and bands every other
// cell around its recorded value (DefaultLabConfig's seed 17, the
// dense layer as an FMA chain over in×out weights). "Calibrated ECE
// below uncalibrated at stage 1" and "stage accuracy rises with depth"
// held on one of those paths only and are not gated.

var (
	paperLabOnce sync.Once
	paperLab     *Lab
	paperLabErr  error
)

// getPaperLab trains DefaultLabConfig once per test binary: ≈ 7 s with
// the SIMD kernels, ≈ 40 s portable, ≈ 90 s under -race, where it is
// skipped (internal/tensor's race tests cover the training helper pool).
func getPaperLab(t *testing.T) *Lab {
	t.Helper()
	if raceEnabled {
		t.Skip("paper-scale training under -race")
	}
	if testing.Short() {
		t.Skip("paper-scale training")
	}
	paperLabOnce.Do(func() {
		paperLab, paperLabErr = NewLab(DefaultLabConfig())
	})
	if paperLabErr != nil {
		t.Fatal(paperLabErr)
	}
	return paperLab
}

// Band half-widths around a recorded value: probTol for ECE, MAE,
// accuracies, their stream std and stages per task; r2Tol for R².
const (
	probTol = 0.01
	r2Tol   = 0.03
)

// inBand fails the test unless got lies within tol of the recorded
// value. The values were recorded on amd64; other targets (arm64) may
// fuse the training products' multiply-adds and train another model, so
// there only the orderings are asserted.
func inBand(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	if got < want-tol || got > want+tol {
		t.Errorf("%s = %.4f outside [%.4f, %.4f] (recorded %.4f)", name, got, want-tol, want+tol, want)
	}
}

// table2Recorded is Table II's ECE per method (MethodNames order) and
// stage. Figure 2's ECEs are its stage-3 Uncalibrated and RTDeepIoT
// cells.
var table2Recorded = [4][3]float64{
	{0.0718, 0.1220, 0.1171}, // Uncalibrated
	{0.0985, 0.0402, 0.1107}, // RDeepSense
	{0.0623, 0.1081, 0.0865}, // RTDeepIoT
	{0.0640, 0.1064, 0.0848}, // TempScale
}

// Table III's MAE and R² for GP1→2, GP1→3 and GP2→3.
var (
	table3MAE = [3]float64{0.1888, 0.0599, 0.0341}
	table3R2  = [3]float64{0.0605, 0.2563, 0.6103}
)

// Figure 4 at DefaultFig4Config: holdout stage accuracies, and per
// policy (fig4Policies order) and N ∈ {2, 5, 10, 20} the mean service
// accuracy and the per-stream accuracy std. Every policy runs 3, 3,
// 2.4 and 1.2 stages per task. The N = 10 cells of RTDeepIoT-3 and the
// three DC policies were re-recorded when Simulate began to drive the
// served scheduler core, which offers the policy its candidates stage by
// stage rather than in arrival order, and so breaks ties differently.
var (
	fig4StageAccs = [3]float64{0.6920, 0.7700, 0.8530}
	fig4Stages    = [4]float64{3, 3, 2.4, 1.2}
	fig4Acc       = [8][4]float64{
		{0.8572, 0.8572, 0.8391, 0.7778}, // RTDeepIoT-1
		{0.8572, 0.8572, 0.8169, 0.7762}, // RTDeepIoT-2
		{0.8572, 0.8572, 0.8119, 0.7762}, // RTDeepIoT-3
		{0.8572, 0.8572, 0.7834, 0.7872}, // RTDeepIoT-DC-1
		{0.8572, 0.8572, 0.7863, 0.7831}, // RTDeepIoT-DC-2
		{0.8572, 0.8572, 0.7997, 0.7850}, // RTDeepIoT-DC-3
		{0.8572, 0.8572, 0.8125, 0.7091}, // RR
		{0.8572, 0.8572, 0.6853, 0.3412}, // FIFO
	}
	fig4Std = [8][4]float64{
		{0.0116, 0.0292, 0.0519, 0.1441},
		{0.0116, 0.0292, 0.0548, 0.1387},
		{0.0116, 0.0292, 0.0593, 0.1460},
		{0.0116, 0.0292, 0.0561, 0.1022},
		{0.0116, 0.0292, 0.0548, 0.1043},
		{0.0116, 0.0292, 0.0552, 0.1024},
		{0.0116, 0.0292, 0.0655, 0.0924},
		{0.0116, 0.0292, 0.3456, 0.4205},
	}
)

func TestPaperFig2(t *testing.T) {
	lab := getPaperLab(t)
	res, err := lab.Fig2(10)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if len(res.Uncalibrated) != 10 || len(res.Calibrated) != 10 {
		t.Fatalf("bin counts %d/%d", len(res.Uncalibrated), len(res.Calibrated))
	}
	if !strings.Contains(res.Render(), "Figure 2") {
		t.Fatal("render missing header")
	}
	if res.CalECE >= res.UncalECE {
		t.Errorf("entropy calibration did not lower the final stage's ECE: %.4f → %.4f", res.UncalECE, res.CalECE)
	}
	inBand(t, "uncalibrated ECE", res.UncalECE, table2Recorded[0][2], probTol)
	inBand(t, "calibrated ECE", res.CalECE, table2Recorded[2][2], probTol)
}

func TestPaperTable2(t *testing.T) {
	lab := getPaperLab(t)
	res, err := lab.Table2(10)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := eceFloor(lab, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render() + floor)
	if len(res.ECE) != len(table2Recorded) || !strings.Contains(res.Render(), "Table II") {
		t.Fatalf("%d methods, or render missing header", len(res.ECE))
	}
	for m, row := range table2Recorded {
		if len(res.ECE[m]) != len(row) {
			t.Fatalf("%s has %d stages", res.MethodNames[m], len(res.ECE[m]))
		}
		for s, want := range row {
			inBand(t, fmt.Sprintf("%s stage %d ECE", res.MethodNames[m], s+1), res.ECE[m][s], want, probTol)
		}
	}
	// Stage 1 is not gated: when the kernel paths trained apart, the
	// portable path's calibrated head was the worse one there (0.098
	// against 0.088).
	for s := 1; s < 3; s++ {
		if ours, uncal := res.ECE[2][s], res.ECE[0][s]; ours >= uncal {
			t.Errorf("stage %d: RTDeepIoT ECE %.4f not below uncalibrated %.4f", s+1, ours, uncal)
		}
	}
}

// eceFloor renders the ECE a perfectly calibrated model would show on
// the calibrated model's own holdout confidences, per stage: labels
// drawn Bernoulli(conf), median and p95 over draws. An ECE near it is
// estimator noise, not miscalibration.
func eceFloor(lab *Lab, bins, draws int) (string, error) {
	ev := calib.EvalUncalibrated(lab.Calibrated, lab.Holdout)
	rng := rand.New(rand.NewSource(lab.Cfg.Seed))
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "ECE floor p50/p95")
	for _, confs := range ev.Confs {
		eces := make([]float64, draws)
		correct := make([]bool, len(confs))
		for d := range eces {
			for i, c := range confs {
				correct[i] = rng.Float64() < c
			}
			var err error
			if eces[d], err = calib.ECE(confs, correct, bins); err != nil {
				return "", err
			}
		}
		slices.Sort(eces)
		fmt.Fprintf(&b, "%.3f / %-14.3f", eces[draws/2], eces[draws*95/100])
	}
	fmt.Fprintf(&b, "\n(floor: Bernoulli(conf) labels on RTDeepIoT's holdout confidences, %d draws)\n", draws)
	return b.String(), nil
}

func TestPaperTable3(t *testing.T) {
	lab := getPaperLab(t)
	res, err := lab.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if len(res.Names) != 3 || !strings.Contains(res.Render(), "Table III") {
		t.Fatalf("rows %v, or render missing header", res.Names)
	}
	for i, name := range res.Names {
		inBand(t, name+" MAE", res.MAE[i], table3MAE[i], probTol)
		inBand(t, name+" R²", res.R2[i], table3R2[i], r2Tol)
	}
	if res.R2[2] <= res.R2[0] {
		t.Errorf("GP2→3 R² %.4f not above GP1→2 R² %.4f", res.R2[2], res.R2[0])
	}
}

func TestPaperFig4(t *testing.T) {
	lab := getPaperLab(t)
	cfg := DefaultFig4Config()
	res, err := lab.Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render() +
		"\npaper: Figure 4 is plotted, not tabulated; its claim is RTDeepIoT ≥ RR ≥ FIFO at every N, gated here\n")
	if len(res.Policies) != len(fig4Acc) || len(cfg.Concurrency) != len(fig4Stages) {
		t.Fatalf("%d policies at %d concurrencies", len(res.Policies), len(cfg.Concurrency))
	}
	for s, want := range fig4StageAccs {
		inBand(t, fmt.Sprintf("stage %d accuracy", s+1), res.StageAccs[s], want, probTol)
	}
	for pi, name := range res.Policies {
		for ci, n := range cfg.Concurrency {
			c := res.Cells[pi][ci]
			cell := fmt.Sprintf("%s at N=%d", name, n)
			inBand(t, cell+" accuracy", c.MeanAcc, fig4Acc[pi][ci], probTol)
			inBand(t, cell+" stream std", c.StdAcc, fig4Std[pi][ci], probTol)
			inBand(t, cell+" stages", c.MeanStages, fig4Stages[ci], probTol)
		}
	}
	for _, n := range cfg.Concurrency {
		var acc [3]float64
		for i, policy := range []string{"RTDeepIoT-1", "RR", "FIFO"} {
			c, err := res.Cell(policy, n)
			if err != nil {
				t.Fatal(err)
			}
			acc[i] = c.MeanAcc
		}
		if acc[0] < acc[1] || acc[1] < acc[2] {
			t.Errorf("N=%d: RTDeepIoT-1 %.4f, RR %.4f, FIFO %.4f: want RTDeepIoT-1 ≥ RR ≥ FIFO", n, acc[0], acc[1], acc[2])
		}
	}
}
