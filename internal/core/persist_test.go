package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"eugene/internal/calib"
	"eugene/internal/dataset"
	"eugene/internal/sched"
)

func persistConfig(dir string) Config {
	return Config{
		Workers: 2, Deadline: 5 * time.Second, QueueDepth: 32, Lookahead: 1,
		DataDir: dir,
	}
}

func smallSet(t *testing.T, seed int64) (*dataset.Set, *dataset.Set) {
	t.Helper()
	cfg := dataset.SynthConfig{
		Classes: 3, Dim: 10, ModesPerClass: 1,
		TrainSize: 200, TestSize: 60,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}
	train, test, err := dataset.SynthCIFAR(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func quickTrain(t *testing.T, svc *Service, name string, train *dataset.Set) {
	t.Helper()
	opts := DefaultTrainOptions(train.X.Cols, 3)
	opts.Model.Hidden = 16
	opts.Model.BlocksPerStage = 1
	opts.Train.Epochs = 6
	if _, err := svc.Train(name, train, opts); err != nil {
		t.Fatal(err)
	}
}

// TestRestartDurability is the acceptance scenario: train + calibrate +
// build predictor, stop the service, restart on the same data dir, and
// verify answers are bitwise identical with no retraining.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	train, test := smallSet(t, 21)

	svc1, err := NewService(persistConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	quickTrain(t, svc1, "m", train)
	ccfg := calib.DefaultEntropyCalibConfig()
	ccfg.Epochs = 2
	ccfg.Alphas = []float64{0.25, 0.5}
	alpha, err := svc1.Calibrate("m", test, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := sched.DefaultGPPredictorConfig()
	gcfg.MaxPoints = 80
	if err := svc1.BuildPredictor("m", train, gcfg); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	inputs := make([][]float64, 10)
	for i := range inputs {
		x, _ := test.Sample(i)
		inputs[i] = append([]float64(nil), x...)
	}
	before := make([]sched.Response, len(inputs))
	for i, x := range inputs {
		r, err := svc1.Infer(ctx, "m", append([]float64(nil), x...))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = r
	}
	batchBefore, err := svc1.InferBatch(ctx, "m", copyRows(inputs))
	if err != nil {
		t.Fatal(err)
	}
	bytesBefore, err := svc1.SnapshotBytes("m")
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	// Restart on the same directory: the model must come back without
	// Train ever being called.
	svc2, err := NewService(persistConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	entry, err := svc2.Entry("m")
	if err != nil {
		t.Fatalf("model not restored: %v", err)
	}
	if entry.Alpha != alpha {
		t.Fatalf("alpha %v != %v after restart", entry.Alpha, alpha)
	}
	if entry.Pred == nil {
		t.Fatal("predictor not restored")
	}
	// The restored registry state re-serializes to the exact bytes the
	// pre-restart service produced: nothing was lost or perturbed.
	bytesAfter, err := svc2.SnapshotBytes("m")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytesBefore, bytesAfter) {
		t.Fatal("snapshot bytes differ across restart")
	}
	for i, x := range inputs {
		r, err := svc2.Infer(ctx, "m", append([]float64(nil), x...))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResponse(t, before[i], r, i)
	}
	batchAfter, err := svc2.InferBatch(ctx, "m", copyRows(inputs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range batchBefore {
		assertSameResponse(t, batchBefore[i], batchAfter[i], i)
	}
}

func copyRows(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

func assertSameResponse(t *testing.T, a, b sched.Response, i int) {
	t.Helper()
	if a.Pred != b.Pred || a.Stages != b.Stages || a.Expired != b.Expired ||
		math.Float64bits(a.Conf) != math.Float64bits(b.Conf) {
		t.Fatalf("response %d diverged after restart: (%d,%v,%d,%v) != (%d,%v,%d,%v)",
			i, a.Pred, a.Conf, a.Stages, a.Expired, b.Pred, b.Conf, b.Stages, b.Expired)
	}
}

func TestInstallSnapshotBytesRoundTrip(t *testing.T) {
	train, test := smallSet(t, 33)
	src, err := NewService(persistConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	quickTrain(t, src, "orig", train)
	raw, err := src.SnapshotBytes("orig")
	if err != nil {
		t.Fatal(err)
	}

	dst, err := NewService(persistConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.InstallSnapshotBytes("copy", raw); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x, _ := test.Sample(0)
	a, err := src.Infer(ctx, "orig", append([]float64(nil), x...))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.Infer(ctx, "copy", append([]float64(nil), x...))
	if err != nil {
		t.Fatal(err)
	}
	assertSameResponse(t, a, b, 0)
	// Install persisted the copy: a file exists under the data dir.
	files, err := os.ReadDir(dst.cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || filepath.Ext(files[0].Name()) != ".snap" {
		t.Fatalf("data dir after install: %v", files)
	}
	// Garbage bytes are rejected outright.
	if err := dst.InstallSnapshotBytes("bad", []byte("not a snapshot")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestCorruptSnapshotFailsBoot(t *testing.T) {
	dir := t.TempDir()
	train, _ := smallSet(t, 5)
	svc, err := NewService(persistConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	quickTrain(t, svc, "m", train)
	svc.Close()
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one snapshot, got %v (%v)", files, err)
	}
	path := filepath.Join(dir, files[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(persistConfig(dir)); err == nil {
		t.Fatal("boot accepted a corrupt snapshot")
	}
}

// TestDeviceCacheFlow drives the observe → decision → subset loop at the
// core layer: skewed traffic flips the decision, and the resulting
// subset model serves the hot classes.
func TestDeviceCacheFlow(t *testing.T) {
	train, test := smallSet(t, 55)
	svc, err := NewService(persistConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	quickTrain(t, svc, "m", train)

	if _, err := svc.CacheDecision("dev1"); err == nil {
		t.Fatal("decision for unknown device must fail")
	}

	// Uniform, thin traffic: no decision yet.
	for c := 0; c < 3; c++ {
		if err := svc.Observe("dev1", "m", c, 10); err != nil {
			t.Fatal(err)
		}
	}
	d, err := svc.CacheDecision("dev1")
	if err != nil {
		t.Fatal(err)
	}
	if d.Cache {
		t.Fatalf("30 uniform observations should not justify caching: %+v", d)
	}
	if _, _, err := svc.DeviceSubset("dev1", 8, 2); err == nil {
		t.Fatal("subset before a positive decision must fail")
	}

	// Heavy skew to class 1 flips the decision.
	if err := svc.Observe("dev1", "m", 1, 500); err != nil {
		t.Fatal(err)
	}
	d, err = svc.CacheDecision("dev1")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Cache || len(d.Hot) == 0 || d.Hot[0] != 1 {
		t.Fatalf("skewed traffic should select class 1: %+v", d)
	}
	sub, _, err := svc.DeviceSubset("dev1", 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Subset model answers hot-class inputs.
	var right, total int
	for i := 0; i < test.Len(); i++ {
		x, y := test.Sample(i)
		if y != 1 {
			continue
		}
		total++
		if pred, _, other := sub.Predict(x); !other && pred == 1 {
			right++
		}
	}
	if total == 0 || float64(right)/float64(total) < 0.6 {
		t.Fatalf("subset model hot accuracy %d/%d too low", right, total)
	}
	// Same hot set: the cached subset is reused, not retrained.
	sub2, _, err := svc.DeviceSubset("dev1", 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sub2 != sub {
		t.Fatal("unchanged hot set should reuse the cached subset model")
	}

	// Observing errors: bad class, bad device, unknown model.
	if err := svc.Observe("dev1", "m", 99, 1); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if err := svc.Observe("", "m", 0, 1); err == nil {
		t.Fatal("empty device accepted")
	}
	if err := svc.Observe("dev2", "ghost", 0, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestReduceUsesRetainedTrainingData(t *testing.T) {
	train, _ := smallSet(t, 77)
	svc, err := NewService(persistConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	quickTrain(t, svc, "m", train)
	// nil data → retained train set.
	sub, err := svc.Reduce("m", nil, []int{0, 2}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.InputWidth() != train.X.Cols {
		t.Fatalf("subset input width %d", sub.InputWidth())
	}
	// A snapshot-installed model retains no data.
	raw, err := svc.SnapshotBytes("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.InstallSnapshotBytes("m2", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Reduce("m2", nil, []int{0}, 0, 2); err == nil {
		t.Fatal("reduce without retained data must fail")
	}
	// Explicit data still works for such models.
	if _, err := svc.Reduce("m2", train, []int{0}, 8, 2); err != nil {
		t.Fatal(err)
	}
}
