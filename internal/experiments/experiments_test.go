package experiments

import (
	"strings"
	"sync"
	"testing"
)

// quickLab is shared across tests in this package (training even the
// quick configuration is the dominant cost).
var (
	quickLabOnce sync.Once
	quickLab     *Lab
	quickLabErr  error
)

func getQuickLab(t *testing.T) *Lab {
	t.Helper()
	quickLabOnce.Do(func() {
		quickLab, quickLabErr = NewLab(QuickLabConfig())
	})
	if quickLabErr != nil {
		t.Fatal(quickLabErr)
	}
	return quickLab
}

func TestNewLabQuick(t *testing.T) {
	lab := getQuickLab(t)
	accs := lab.StageAccuracies()
	if len(accs) != 3 {
		t.Fatalf("stage accs %v", accs)
	}
	for s, a := range accs {
		if a < 0.3 || a > 1 {
			t.Fatalf("stage %d accuracy %v implausible", s, a)
		}
	}
	if lab.Pred == nil || lab.Calibrated == nil {
		t.Fatal("lab missing artifacts")
	}
}

func TestLabConfigErrors(t *testing.T) {
	cfg := QuickLabConfig()
	cfg.CalibFraction = 0
	if _, err := NewLab(cfg); err == nil {
		t.Fatal("expected calibration-fraction error")
	}
	cfg = QuickLabConfig()
	cfg.Data.Classes = 1
	if _, err := NewLab(cfg); err == nil {
		t.Fatal("expected dataset error")
	}
}

func TestFig4Quick(t *testing.T) {
	lab := getQuickLab(t)
	cfg := Fig4Config{
		Concurrency: []int{2, 12},
		Workers:     4,
		StageCost:   10,
		Deadline:    30,
		TasksPerRun: 60,
		Reps:        2,
		Seed:        1,
	}
	res, err := lab.Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 8 {
		t.Fatalf("policies = %v", res.Policies)
	}
	for pi := range res.Cells {
		for ci := range res.Cells[pi] {
			c := res.Cells[pi][ci]
			if c.MeanAcc < 0 || c.MeanAcc > 1 {
				t.Fatalf("cell (%d,%d) accuracy %v", pi, ci, c.MeanAcc)
			}
			if c.MeanStages < 0 || c.MeanStages > 3 {
				t.Fatalf("cell (%d,%d) stages %v", pi, ci, c.MeanStages)
			}
		}
	}
	// Under contention, FIFO must not beat RTDeepIoT-1.
	rt, err := res.Cell("RTDeepIoT-1", 12)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := res.Cell("FIFO", 12)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.MeanAcc > rt.MeanAcc+0.02 {
		t.Fatalf("FIFO %.3f beat RTDeepIoT %.3f under contention", fifo.MeanAcc, rt.MeanAcc)
	}
	if _, err := res.Cell("nope", 2); err == nil {
		t.Fatal("expected unknown-cell error")
	}
	if !strings.Contains(res.Render(), "Figure 4") {
		t.Fatal("render missing header")
	}
}

func TestFig4ConfigValidate(t *testing.T) {
	lab := getQuickLab(t)
	if _, err := lab.Fig4(Fig4Config{}); err == nil {
		t.Fatal("expected config error")
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		relErr := abs(r.ModelMS-r.PaperTimeMS) / r.PaperTimeMS
		if relErr > 0.05 {
			t.Fatalf("%s device model %.1f vs paper %.1f", r.Name, r.ModelMS, r.PaperTimeMS)
		}
	}
	if byName["CNN2"].LearnedMS <= byName["CNN1"].LearnedMS {
		t.Fatal("learned profiler lost CNN2 > CNN1")
	}
	if byName["CNN3"].LearnedMS <= byName["CNN4"].LearnedMS {
		t.Fatal("learned profiler lost CNN3 > CNN4")
	}
	if res.ProfilerMAPE > 0.2 {
		t.Fatalf("profiler MAPE %v", res.ProfilerMAPE)
	}
	if !strings.Contains(res.Render(), "Table I") {
		t.Fatal("render missing header")
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("camera simulation")
	}
	res, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	ind := res.Individual.DetectionAccuracy
	col := res.Collaborative.DetectionAccuracy
	if ind < 0.6 || ind > 0.78 {
		t.Fatalf("individual accuracy %.3f off the ≈0.68 band", ind)
	}
	if col < ind+0.05 {
		t.Fatalf("collaboration gain too small: %.3f vs %.3f", col, ind)
	}
	if res.Individual.MeanLatencyMS != 550 {
		t.Fatalf("individual latency %v", res.Individual.MeanLatencyMS)
	}
	if res.Collaborative.MeanLatencyMS > 40 {
		t.Fatalf("collaborative latency %v", res.Collaborative.MeanLatencyMS)
	}
	if col-res.Rogue.DetectionAccuracy < 0.2 {
		t.Fatalf("rogue damage too small: %.3f → %.3f", col, res.Rogue.DetectionAccuracy)
	}
	if res.Resilient.DetectionAccuracy < res.Rogue.DetectionAccuracy+0.1 {
		t.Fatal("resilience did not recover")
	}
	if !strings.Contains(res.Render(), "Table IV") {
		t.Fatal("render missing header")
	}
}

func TestPruningShape(t *testing.T) {
	res, err := Pruning(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		// Node pruning's dense cost must track compression closely;
		// sparse edge pruning carries overhead.
		if p.NodeNS >= p.DenseNS {
			t.Fatalf("node-pruned (%v) not faster than dense (%v)", p.NodeNS, p.DenseNS)
		}
		if p.NodeNS > p.EdgeNS*1.2 {
			t.Fatalf("node (%v) should not be materially slower than sparse (%v)", p.NodeNS, p.EdgeNS)
		}
	}
	if _, err := Pruning(2, 1); err == nil {
		t.Fatal("expected size error")
	}
	if !strings.Contains(res.Render(), "reduction") {
		t.Fatal("render missing header")
	}
}

func TestLabelingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	res, err := Labeling(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if res.Agreement < 0.85 {
		t.Fatalf("agreement %.3f too low", res.Agreement)
	}
	// The paper's claim: proposed labels recover most of the fully
	// supervised accuracy and beat training on the seeds alone.
	if res.AccProposed < 0.9*res.AccFull {
		t.Fatalf("proposed %.3f ≪ full %.3f", res.AccProposed, res.AccFull)
	}
	if res.AccProposed <= res.AccSeedOnly {
		t.Fatalf("proposed %.3f not better than seed-only %.3f", res.AccProposed, res.AccSeedOnly)
	}
	if !strings.Contains(res.Render(), "Auto-labeling") {
		t.Fatal("render missing header")
	}
}

func TestCachingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	res, err := Caching(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if res.HitRate < 0.4 {
		t.Fatalf("hit rate %.3f too low for a zipf workload", res.HitRate)
	}
	if res.MeanLatencyMS >= res.AllServerMS {
		t.Fatalf("caching latency %.2f not better than all-server %.2f", res.MeanLatencyMS, res.AllServerMS)
	}
	if res.Accuracy < 0.8 {
		t.Fatalf("end-to-end accuracy %.3f", res.Accuracy)
	}
	if res.DeviceParams >= res.ServerParams {
		t.Fatal("device model not smaller than server model")
	}
	if !strings.Contains(res.Render(), "caching") {
		t.Fatal("render missing header")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
