package experiments

import (
	"strings"
	"testing"
)

func TestServiceClassesQuick(t *testing.T) {
	lab := getQuickLab(t)
	cfg := DefaultServiceClassConfig()
	cfg.TotalTasks = 150
	res, err := lab.ServiceClasses(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	w := res.Stats["weighted"]["chatbot"]
	u := res.Stats["class-blind"]["chatbot"]
	if w.Total == 0 || u.Total == 0 {
		t.Fatalf("missing chatbot traffic: %+v / %+v", w, u)
	}
	// At quick scale individual accuracies are noisy (tens of chatbot
	// tasks); the robust signal is that weighting must not leave MORE
	// chatbot requests unanswered than the class-blind scheduler.
	wu := float64(w.Unanswered) / float64(max(w.Total, 1))
	uu := float64(u.Unanswered) / float64(max(u.Total, 1))
	if wu > uu+0.05 {
		t.Fatalf("weighted chatbot unanswered %.3f worse than class-blind %.3f", wu, uu)
	}
	if !strings.Contains(res.Render(), "chatbot") {
		t.Fatal("render missing class")
	}
	if _, err := lab.ServiceClasses(ServiceClassConfig{}); err == nil {
		t.Fatal("expected config error")
	}
}

func TestCalibAblationQuick(t *testing.T) {
	lab := getQuickLab(t)
	cfg := Fig4Config{
		Concurrency: []int{8},
		Workers:     2,
		StageCost:   10,
		Deadline:    30,
		TasksPerRun: 60,
		Reps:        2,
		Seed:        1,
	}
	res, err := lab.CalibAblation(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if res.Calibrated < 0 || res.Calibrated > 1 || res.Uncalibrated < 0 || res.Uncalibrated > 1 {
		t.Fatalf("accuracies %v / %v", res.Calibrated, res.Uncalibrated)
	}
	if !strings.Contains(res.Render(), "ablation") {
		t.Fatal("render missing header")
	}
	if _, err := lab.CalibAblation(8, Fig4Config{}); err == nil {
		t.Fatal("expected config error")
	}
}
