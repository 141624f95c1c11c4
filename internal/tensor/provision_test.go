package tensor_test

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"eugene/internal/calib"
	"eugene/internal/core"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/tensor"
)

// provisionPin is the sha256 of TestProvisioningPin's bundle. Training
// runs through every product in this package, and Eq. 4's calibration
// through Softmax and LogFloor — the exp and log lanes, which must give
// math.Exp's and math.Log's bits — so a change anywhere here — or in
// nn, staged, calib or gp — that moves one trained or calibrated bit
// fails this test. Every kernel path gives the portable loops' bits, so
// one pin holds for all of them: go test ./internal/tensor and go test
// -tags noasm ./internal/tensor must provision the same bundle.
const provisionPin = "306b30baefe5f789a428cf89c6d75c6483651c888e54b1e640b63467af0e80a6"

// TestProvisioningPin runs the paper's provisioning pipeline end to end
// at a small fixed-seed shape — train, calibrate by Eq. 4, fit the GP
// confidence predictor — and compares the model bundle's hash with the
// recorded one, on each kernel path the CPU has (the portable loops
// included) and at parallelism 1, 2 and 4: the bundle must not depend on
// the path or on how many cores ran it. The shape puts a masked column
// tail and a ragged register tile in every product (13 inputs, 40
// hidden, a 6-wide bottleneck head, 5 classes, batches of 20).
func TestProvisioningPin(t *testing.T) {
	paths := tensor.KernelPaths()
	if len(paths) == 0 {
		t.Skip("this build may fuse the portable products' multiply-adds (arm64, GOAMD64 ≥ v3): no recorded bundle applies")
	}
	if !slices.Contains(paths, "avx512") {
		t.Logf("this CPU runs only the %v paths", paths)
	}
	defer tensor.UseKernelPath(tensor.KernelPath())
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, path := range paths {
		tensor.UseKernelPath(path)
		for _, par := range []int{1, 2, 4} {
			tensor.SetParallelism(par)
			if got := provisionedBundleHash(t); got != provisionPin {
				t.Errorf("%s path, parallelism %d: bundle sha256 %s, the recorded one is %s — training numerics drifted", path, par, got, provisionPin)
			}
		}
	}
}

// provisionedBundleHash provisions TestProvisioningPin's model and
// returns its bundle's sha256.
func provisionedBundleHash(t *testing.T) string {
	t.Helper()
	train, test, err := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 5, Dim: 13, ModesPerClass: 2, TrainSize: 160, TestSize: 64,
		NoiseLo: 0.4, NoiseHi: 1.2, Overlap: 0.2,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewService(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	opts := core.DefaultTrainOptions(13, 5)
	opts.Model.Hidden = 40
	opts.Model.StageCount = 2
	opts.Model.BlocksPerStage = 1
	opts.Model.HeadBottlenecks = []int{6, 0}
	opts.Model.HeadDropout = 0
	opts.Train.Epochs = 2
	opts.Train.BatchSize = 20
	opts.Seed = 3
	if _, err := svc.Train("pin", train, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Calibrate("pin", test, calib.DefaultEntropyCalibConfig()); err != nil {
		t.Fatal(err)
	}
	if err := svc.BuildPredictor("pin", test, sched.DefaultGPPredictorConfig()); err != nil {
		t.Fatal(err)
	}
	bundle, err := svc.SnapshotBytes("pin")
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bundle)
	return hex.EncodeToString(sum[:])
}
