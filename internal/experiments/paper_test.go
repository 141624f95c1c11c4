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
// to print them. The lab is deterministic per kernel path, but the
// paths train different networks: the SIMD kernels (AVX2 and AVX-512
// give the same bits) and the portable build (-tags noasm) round
// differently. So each test asserts only the orderings that hold on
// both paths, and bands every other cell around the two paths' values,
// recorded at commit 060bb90 with DefaultLabConfig's seed 17.
// "Calibrated ECE below uncalibrated at stage 1" and "stage accuracy
// rises with depth" hold on one path only and are not gated.

var (
	paperLabOnce sync.Once
	paperLab     *Lab
	paperLabErr  error
)

// getPaperLab trains DefaultLabConfig once per test binary: ≈ 7 s with
// the SIMD kernels, ≈ 28 s portable, ≈ 90 s under -race, where it is
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

// recorded is one printed value on the SIMD and on the portable path.
type recorded struct{ simd, portable float64 }

// Band half-widths around the recorded pair: probTol for ECE, MAE,
// accuracies, their stream std and stages per task; r2Tol for R².
const (
	probTol = 0.01
	r2Tol   = 0.03
)

// inBand fails the test unless got lies within tol of the interval the
// two recorded values span. The values were recorded on amd64; other
// targets (arm64) fuse the portable loops' multiply-adds and train yet
// another model, so there only the orderings are asserted.
func inBand(t *testing.T, name string, got float64, want recorded, tol float64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		return
	}
	lo := min(want.simd, want.portable) - tol
	hi := max(want.simd, want.portable) + tol
	if got < lo || got > hi {
		t.Errorf("%s = %.4f outside [%.4f, %.4f] (recorded: SIMD %.4f, portable %.4f)",
			name, got, lo, hi, want.simd, want.portable)
	}
}

// table2Recorded is Table II's ECE per method (MethodNames order) and
// stage. Figure 2's ECEs are its stage-3 Uncalibrated and RTDeepIoT
// cells.
var table2Recorded = [4][3]recorded{
	{{0.0894, 0.0879}, {0.1039, 0.1143}, {0.1056, 0.1223}}, // Uncalibrated
	{{0.1057, 0.1443}, {0.0654, 0.0359}, {0.1006, 0.1156}}, // RDeepSense
	{{0.0824, 0.0983}, {0.0649, 0.1119}, {0.0575, 0.0572}}, // RTDeepIoT
	{{0.0649, 0.0869}, {0.0780, 0.1117}, {0.0577, 0.0622}}, // TempScale
}

// Table III's MAE and R² for GP1→2, GP1→3 and GP2→3.
var (
	table3MAE = [3]recorded{{0.0875, 0.2057}, {0.0881, 0.1190}, {0.0556, 0.0906}}
	table3R2  = [3]recorded{{-0.0589, 0.0654}, {0.2855, 0.2882}, {0.6759, 0.5176}}
)

// Figure 4 at DefaultFig4Config: holdout stage accuracies, and per
// policy (fig4Policies order) and N ∈ {2, 5, 10, 20} the mean service
// accuracy and the per-stream accuracy std. Every policy runs 3, 3,
// 2.4 and 1.2 stages per task on both paths.
var (
	fig4StageAccs = [3]recorded{{0.773, 0.775}, {0.857, 0.770}, {0.867, 0.848}}
	fig4Stages    = [4]float64{3, 3, 2.4, 1.2}
	fig4Acc       = [8][4]recorded{
		{{0.8659, 0.8434}, {0.8659, 0.8434}, {0.8619, 0.8212}, {0.8359, 0.8181}}, // RTDeepIoT-1
		{{0.8659, 0.8434}, {0.8659, 0.8434}, {0.8606, 0.8134}, {0.8362, 0.8172}}, // RTDeepIoT-2
		{{0.8659, 0.8434}, {0.8659, 0.8434}, {0.8594, 0.8041}, {0.8344, 0.8191}}, // RTDeepIoT-3
		{{0.8659, 0.8434}, {0.8659, 0.8434}, {0.8641, 0.7728}, {0.8216, 0.7928}}, // RTDeepIoT-DC-1
		{{0.8659, 0.8434}, {0.8659, 0.8434}, {0.8638, 0.7772}, {0.8212, 0.7928}}, // RTDeepIoT-DC-2
		{{0.8659, 0.8434}, {0.8659, 0.8434}, {0.8622, 0.7897}, {0.8206, 0.7928}}, // RTDeepIoT-DC-3
		{{0.8659, 0.8434}, {0.8659, 0.8434}, {0.8609, 0.8009}, {0.7916, 0.7688}}, // RR
		{{0.8659, 0.8434}, {0.8659, 0.8434}, {0.6922, 0.6728}, {0.3469, 0.3347}}, // FIFO
	}
	fig4Std = [8][4]recorded{
		{{0.0116, 0.0128}, {0.0303, 0.0320}, {0.0452, 0.0542}, {0.0803, 0.0834}},
		{{0.0116, 0.0128}, {0.0303, 0.0320}, {0.0465, 0.0565}, {0.0802, 0.0832}},
		{{0.0116, 0.0128}, {0.0303, 0.0320}, {0.0464, 0.0544}, {0.0810, 0.0826}},
		{{0.0116, 0.0128}, {0.0303, 0.0320}, {0.0462, 0.0568}, {0.0811, 0.0872}},
		{{0.0116, 0.0128}, {0.0303, 0.0320}, {0.0458, 0.0563}, {0.0810, 0.0872}},
		{{0.0116, 0.0128}, {0.0303, 0.0320}, {0.0470, 0.0551}, {0.0822, 0.0872}},
		{{0.0116, 0.0128}, {0.0303, 0.0320}, {0.0467, 0.0597}, {0.0873, 0.0881}},
		{{0.0116, 0.0128}, {0.0303, 0.0320}, {0.3486, 0.3394}, {0.4272, 0.4133}},
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
	// Stage 1 is not gated: the portable path's calibrated head is the
	// worse one there (0.098 against 0.088).
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
			inBand(t, cell+" stages", c.MeanStages, recorded{fig4Stages[ci], fig4Stages[ci]}, probTol)
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
