package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"eugene/internal/calib"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/staged"
	"eugene/internal/tensor"
)

func testData(t *testing.T) (*dataset.Set, *dataset.Set) {
	t.Helper()
	cfg := dataset.SynthConfig{
		Classes: 4, Dim: 12, ModesPerClass: 2,
		TrainSize: 400, TestSize: 200,
		NoiseLo: 0.5, NoiseHi: 1.5, Overlap: 0.2,
	}
	train, test, err := dataset.SynthCIFAR(cfg, 51)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func testService(t *testing.T) (*Service, *dataset.Set, *dataset.Set) {
	t.Helper()
	svc, err := NewService(Config{Workers: 2, Deadline: time.Second, QueueDepth: 32, Lookahead: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	train, test := testData(t)
	opts := DefaultTrainOptions(12, 4)
	opts.Model.Hidden = 24
	opts.Model.BlocksPerStage = 1
	opts.Train.Epochs = 10
	if _, err := svc.Train("demo", train, opts); err != nil {
		t.Fatal(err)
	}
	return svc, train, test
}

// TestServiceCloseJoinsItsGoroutines: Close stops every model's
// sched.Live, returns promptly, and leaves the process with the
// goroutines it had before the service existed. A worker that
// stops watching its stop channel fails here in seconds and by name. It
// is the package's first test because every later one closes a Service
// in its cleanup, and would hang on the same defect until the
// ten-minute timeout.
func TestServiceCloseJoinsItsGoroutines(t *testing.T) {
	// tensor's helpers live as long as the process and are nobody's to
	// join: start them before the baseline is taken.
	tensor.Each(tensor.Parallelism(), func(int) {})
	base := runtime.NumGoroutine()

	svc, _, test := testService(t)
	batch := make([][]float64, 16)
	for i := range batch {
		batch[i], _ = test.Sample(i)
	}
	if _, err := svc.InferBatch(context.Background(), "demo", batch); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Infer(context.Background(), "demo", batch[0]); err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("core.Service.Close has not returned after 2s: a sched.Live goroutine is not watching its stop channel")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines 2s after Service.Close, %d before NewService; still running:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Workers: 0, Deadline: time.Second, QueueDepth: 1, Lookahead: 1},
		{Workers: 1, Deadline: 0, QueueDepth: 1, Lookahead: 1},
		{Workers: 1, Deadline: time.Second, QueueDepth: 0, Lookahead: 1},
		{Workers: 1, Deadline: time.Second, QueueDepth: 1, Lookahead: 0},
		{Workers: 1, Deadline: time.Second, QueueDepth: 1, Lookahead: 1, MaxBatch: -1},
	}
	for i, cfg := range bad {
		if _, err := NewService(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestTrainAndInfer(t *testing.T) {
	svc, _, test := testService(t)
	entry, err := svc.Entry("demo")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Model.NumStages() != 3 {
		t.Fatalf("stages = %d", entry.Model.NumStages())
	}
	x, _ := test.Sample(0)
	resp, err := svc.Infer(context.Background(), "demo", x)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stages == 0 || resp.Pred < 0 || resp.Pred >= 4 {
		t.Fatalf("bad response %+v", resp)
	}
}

func TestInferRejectsWrongWidth(t *testing.T) {
	svc, _, test := testService(t)
	if _, err := svc.Infer(context.Background(), "demo", []float64{1, 2, 3}); err == nil ||
		!strings.Contains(err.Error(), "input width") {
		t.Fatalf("err = %v, want input-width error", err)
	}
	x, _ := test.Sample(0)
	if _, err := svc.InferBatch(context.Background(), "demo", [][]float64{x, {1}}); err == nil ||
		!strings.Contains(err.Error(), "batch index 1") {
		t.Fatalf("batch err = %v, want input-width error at index 1", err)
	}
}

// TestErrorsCarrySentinelsAndKeepTheirText: internal/service picks the
// HTTP status by errors.Is on these sentinels, and clients have been
// shown these texts since before the sentinels existed.
func TestErrorsCarrySentinelsAndKeepTheirText(t *testing.T) {
	svc, _, _ := testService(t)
	entry, err := svc.Entry("demo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("bare", entry.Model); err != nil { // no training data retained
		t.Fatal(err)
	}
	if err := svc.Observe("dev", "demo", 0, 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		is   error
		text string
		get  func() error
	}{
		{ErrUnknownModel, `core: unknown model "nope"`, func() error {
			_, err := svc.Infer(ctx, "nope", []float64{1})
			return err
		}},
		{ErrInputWidth, `core: model "demo" wants input width 12, got 3`, func() error {
			_, err := svc.Infer(ctx, "demo", []float64{1, 2, 3})
			return err
		}},
		{ErrEmptyDevice, `core: empty device id`, func() error { return svc.Observe("", "demo", 0, 1) }},
		{ErrClassRange, `core: class 99 outside model "demo"'s 4 classes`, func() error { return svc.Observe("dev", "demo", 99, 1) }},
		{ErrUnknownDevice, `core: unknown device "ghost" (no observations yet)`, func() error {
			_, err := svc.CacheDecision("ghost")
			return err
		}},
		{ErrCachingNotJustified, `core: caching not justified for device "dev" yet (1 observations)`, func() error {
			_, _, err := svc.DeviceSubset("dev", 0, 0)
			return err
		}},
		{ErrNoTrainingData, `core: no training data retained for "bare"; supply data with the reduction request`, func() error {
			_, err := svc.Reduce("bare", nil, []int{0, 1}, 0, 0)
			return err
		}},
		{ErrInstall, `core: installing "x": `, func() error { return svc.InstallSnapshotBytes("x", []byte("junk")) }},
	}
	for _, c := range cases {
		err := c.get()
		if !errors.Is(err, c.is) {
			t.Errorf("%v: not errors.Is %q", err, c.is)
		}
		got := fmt.Sprint(err)
		if c.is == ErrInstall { // its message goes on with the decoder's own error
			got = got[:min(len(got), len(c.text))]
		}
		if got != c.text {
			t.Errorf("message %q, want %q", err, c.text)
		}
	}
}

func TestCalibrateAndPredictorLifecycle(t *testing.T) {
	svc, train, test := testService(t)
	ccfg := calib.DefaultEntropyCalibConfig()
	ccfg.Epochs = 3
	ccfg.Alphas = []float64{0.5}
	if _, err := svc.Calibrate("demo", test, ccfg); err != nil {
		t.Fatal(err)
	}
	gcfg := sched.DefaultGPPredictorConfig()
	gcfg.MaxPoints = 100
	if err := svc.BuildPredictor("demo", train, gcfg); err != nil {
		t.Fatal(err)
	}
	entry, _ := svc.Entry("demo")
	if entry.Pred == nil {
		t.Fatal("predictor not installed")
	}
	// Inference with the RTDeepIoT policy now.
	x, _ := test.Sample(1)
	resp, err := svc.Infer(context.Background(), "demo", x)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stages == 0 {
		t.Fatalf("no stages executed: %+v", resp)
	}
	// Calibration invalidates the predictor.
	if _, err := svc.Calibrate("demo", test, ccfg); err != nil {
		t.Fatal(err)
	}
	entry, _ = svc.Entry("demo")
	if entry.Pred != nil {
		t.Fatal("stale predictor survived recalibration")
	}
}

func TestConcurrentInference(t *testing.T) {
	svc, _, test := testService(t)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x, _ := test.Sample(i % test.Len())
			_, errs[i] = svc.Infer(context.Background(), "demo", x)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestInferBatch(t *testing.T) {
	svc, _, test := testService(t)
	inputs := make([][]float64, 12)
	want := make([]int, len(inputs))
	for i := range inputs {
		inputs[i], want[i] = test.Sample(i % test.Len())
	}
	resps, err := svc.InferBatch(context.Background(), "demo", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(inputs) {
		t.Fatalf("%d responses for %d inputs", len(resps), len(inputs))
	}
	var right int
	for i, r := range resps {
		if r.Stages == 0 {
			t.Fatalf("batch item %d executed no stages: %+v", i, r)
		}
		if r.Pred == want[i] {
			right++
		}
	}
	if right == 0 {
		t.Fatal("batch never right")
	}
	if _, err := svc.InferBatch(context.Background(), "nope", inputs); err == nil {
		t.Fatal("expected unknown-model error")
	}
	if resps, err := svc.InferBatch(context.Background(), "demo", nil); err != nil || len(resps) != 0 {
		t.Fatalf("empty batch: %v, %v", resps, err)
	}
}

// TestInferConcurrentWithRecalibration exercises the registry under
// -race: inference traffic runs while Calibrate and BuildPredictor swap
// entries and tear down serving pools. The copy-on-write registry plus
// Infer's one-shot ErrStopped retry must keep requests succeeding.
// TestInferBatchMatchesSequential pins the end-to-end guarantee behind
// scheduler-level batching: submitting the same inputs one at a time and
// as one coalesced batch must yield identical predictions and equal (to
// numerical tolerance) confidences per task — batching must not change
// answers. The batched path runs whole stage-groups through the SIMD
// GEMM tile, whose summation order differs from the sequential GEMV's
// by a few ulps, hence the tolerance on Conf.
func TestInferBatchMatchesSequential(t *testing.T) {
	svc, _, test := testService(t)
	ctx := context.Background()
	const n = 12
	inputs := make([][]float64, n)
	for i := 0; i < n; i++ {
		x, _ := test.Sample(i % test.Len())
		inputs[i] = x
	}
	seq := make([]sched.Response, n)
	for i, x := range inputs {
		r, err := svc.Infer(ctx, "demo", append([]float64(nil), x...))
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		if r.Expired {
			t.Fatalf("sequential %d expired; deadline too tight for test", i)
		}
		seq[i] = r
	}
	bat, err := svc.InferBatch(ctx, "demo", inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		if bat[i].Expired {
			t.Fatalf("batched %d expired; deadline too tight for test", i)
		}
		if seq[i].Stages != bat[i].Stages {
			t.Fatalf("task %d: stages %d sequential vs %d batched", i, seq[i].Stages, bat[i].Stages)
		}
		if seq[i].Pred != bat[i].Pred || math.Abs(seq[i].Conf-bat[i].Conf) > 1e-9 {
			t.Fatalf("task %d: sequential (%d, %v) vs batched (%d, %v)",
				i, seq[i].Pred, seq[i].Conf, bat[i].Pred, bat[i].Conf)
		}
	}
}

func TestInferConcurrentWithRecalibration(t *testing.T) {
	svc, train, test := testService(t)
	ccfg := calib.DefaultEntropyCalibConfig()
	ccfg.Epochs = 1
	ccfg.Alphas = []float64{0.5}
	gcfg := sched.DefaultGPPredictorConfig()
	gcfg.MaxPoints = 50

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				x, _ := test.Sample((g*31 + i) % test.Len())
				_, err := svc.Infer(context.Background(), "demo", x)
				// A request can still straddle two consecutive pool
				// teardowns (the retry is one-shot by design); only
				// unexpected failures count.
				if err != nil && !errors.Is(err, sched.ErrStopped) && !errors.Is(err, sched.ErrUnanswered) {
					select {
					case errCh <- fmt.Errorf("goroutine %d: %w", g, err):
					default:
					}
					return
				}
			}
		}(g)
	}
	for round := 0; round < 3; round++ {
		if _, err := svc.Calibrate("demo", test, ccfg); err != nil {
			t.Fatal(err)
		}
		if err := svc.BuildPredictor("demo", train, gcfg); err != nil &&
			!strings.Contains(err.Error(), "changed during predictor build") {
			t.Fatal(err)
		}
		x, _ := test.Sample(round)
		if _, err := svc.InferBatch(context.Background(), "demo", [][]float64{x}); err != nil && !errors.Is(err, sched.ErrStopped) {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Once the churn settles, a plain request must succeed.
	x, _ := test.Sample(0)
	resp, err := svc.Infer(context.Background(), "demo", x)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stages == 0 {
		t.Fatalf("no stages executed: %+v", resp)
	}
}

func TestCalibrateDetectsConcurrentRetrain(t *testing.T) {
	svc, train, test := testService(t)
	// Simulate "model replaced while calibration ran" by swapping the
	// registry underneath: re-train between reading the entry and the
	// publish is hard to time, so drive the guard directly via a
	// second Train and a calibration started before it.
	done := make(chan error, 1)
	go func() {
		ccfg := calib.DefaultEntropyCalibConfig()
		ccfg.Epochs = 3
		ccfg.Alphas = []float64{0.3, 0.5, 0.7}
		_, err := svc.Calibrate("demo", test, ccfg)
		done <- err
	}()
	opts := DefaultTrainOptions(12, 4)
	opts.Model.Hidden = 16
	opts.Model.BlocksPerStage = 1
	opts.Train.Epochs = 3
	if _, err := svc.Train("demo", train, opts); err != nil {
		t.Fatal(err)
	}
	// Whichever ordering the race produced, the registry must end up
	// serving a working model: either calibration finished first (and
	// Train replaced it) or calibration detected the swap and errored.
	if err := <-done; err != nil && !strings.Contains(err.Error(), "changed during calibration") {
		t.Fatal(err)
	}
	x, _ := test.Sample(0)
	if _, err := svc.Infer(context.Background(), "demo", x); err != nil {
		t.Fatal(err)
	}
}

func TestEntryReturnsSnapshot(t *testing.T) {
	svc, _, _ := testService(t)
	entry, err := svc.Entry("demo")
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the snapshot must not corrupt the registry.
	entry.Model = nil
	entry.Pred = nil
	if len(entry.StageAccs) > 0 {
		entry.StageAccs[0] = -1
	}
	again, err := svc.Entry("demo")
	if err != nil {
		t.Fatal(err)
	}
	if again.Model == nil {
		t.Fatal("registry entry corrupted through snapshot")
	}
	if len(again.StageAccs) > 0 && again.StageAccs[0] == -1 {
		t.Fatal("registry StageAccs aliased by snapshot")
	}
}

func TestCloseRejectsInference(t *testing.T) {
	svc, _, test := testService(t)
	x, _ := test.Sample(0)
	if _, err := svc.Infer(context.Background(), "demo", x); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Infer(context.Background(), "demo", x); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := svc.InferBatch(context.Background(), "demo", [][]float64{x}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch err = %v, want ErrClosed", err)
	}
}

func TestStats(t *testing.T) {
	svc, _, test := testService(t)
	if stats := svc.Stats(); len(stats) != 0 {
		t.Fatalf("stats before serving = %v", stats)
	}
	inputs := make([][]float64, 6)
	for i := range inputs {
		inputs[i], _ = test.Sample(i)
	}
	if _, err := svc.InferBatch(context.Background(), "demo", inputs); err != nil {
		t.Fatal(err)
	}
	stats := svc.Stats()
	st, ok := stats["demo"]
	if !ok {
		t.Fatalf("no stats for demo: %v", stats)
	}
	if st.Submitted != 6 || st.Answered != 6 {
		t.Fatalf("stats %+v, want 6 submitted and answered", st)
	}
}

func TestReduce(t *testing.T) {
	svc, train, test := testService(t)
	sub, err := svc.Reduce("demo", train, []int{0, 2}, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Params() == 0 {
		t.Fatal("empty subset model")
	}
	var any bool
	for i := 0; i < test.Len(); i++ {
		x, y := test.Sample(i)
		if y != 0 && y != 2 {
			continue
		}
		if pred, _, other := sub.Predict(x); !other && pred == y {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("reduced model never right on hot classes")
	}
	if _, err := svc.Reduce("nope", train, []int{0}, 8, 2); err == nil {
		t.Fatal("expected unknown-model error")
	}
}

func TestRegisterAndModels(t *testing.T) {
	svc, err := NewService(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mcfg := staged.Config{In: 4, Hidden: 8, Classes: 2, StageCount: 2, BlocksPerStage: 1}
	m, err := staged.New(rand.New(rand.NewSource(1)), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register("ext", m); err != nil {
		t.Fatal(err)
	}
	names := svc.Models()
	if len(names) != 1 || names[0] != "ext" {
		t.Fatalf("models = %v", names)
	}
	if _, err := svc.Register("", nil); err == nil {
		t.Fatal("expected registration error")
	}
}

func TestTrainReplacesServingPool(t *testing.T) {
	svc, train, test := testService(t)
	x, _ := test.Sample(0)
	if _, err := svc.Infer(context.Background(), "demo", x); err != nil {
		t.Fatal(err)
	}
	// Retrain under the same name; old pool must be stopped and new
	// inferences must still work.
	opts := DefaultTrainOptions(12, 4)
	opts.Model.Hidden = 16
	opts.Model.BlocksPerStage = 1
	opts.Train.Epochs = 3
	if _, err := svc.Train("demo", train, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Infer(context.Background(), "demo", x); err != nil {
		t.Fatal(err)
	}
}

// TestHotSwapStopsPoolOutsideLock is the -race regression for what the
// locks analyzer found blocking under a lock: Register,
// InstallSnapshotBytes and Close used to call Live.Stop — which joins
// worker goroutines — while holding s.mu, stalling every registry
// reader behind the drain. The pool is now
// detached under the lock and stopped after release, so readers
// (Infer, Stats, Models) must stay responsive while swaps churn, and
// each detached pool must be stopped exactly once.
func TestHotSwapStopsPoolOutsideLock(t *testing.T) {
	svc, _, test := testService(t)
	snap, err := svc.SnapshotBytes("demo")
	if err != nil {
		t.Fatal(err)
	}
	entry, err := svc.Entry("demo")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				x, _ := test.Sample((g*17 + i) % test.Len())
				if _, err := svc.Infer(context.Background(), "demo", x); err != nil &&
					!errors.Is(err, sched.ErrStopped) && !errors.Is(err, sched.ErrUnanswered) {
					select {
					case errCh <- fmt.Errorf("goroutine %d: %w", g, err):
					default:
					}
					return
				}
				// Readers share s.mu with the swappers; they must never
				// observe a torn registry.
				svc.Stats()
				svc.Models()
			}
		}(g)
	}
	for round := 0; round < 4; round++ {
		if round%2 == 0 {
			if _, err := svc.Register("demo", entry.Model); err != nil {
				t.Fatal(err)
			}
		} else if err := svc.InstallSnapshotBytes("demo", snap); err != nil {
			t.Fatal(err)
		}
		x, _ := test.Sample(round)
		if _, err := svc.Infer(context.Background(), "demo", x); err != nil &&
			!errors.Is(err, sched.ErrStopped) && !errors.Is(err, sched.ErrUnanswered) {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Close races nothing here, but must still stop the surviving pool
	// without deadlocking against its own registry lock.
	svc.Close()
	x, _ := test.Sample(0)
	if _, err := svc.Infer(context.Background(), "demo", x); !errors.Is(err, ErrClosed) {
		t.Fatalf("Infer after Close: %v, want ErrClosed", err)
	}
}
