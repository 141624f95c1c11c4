package tensor_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"eugene/internal/calib"
	"eugene/internal/core"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/tensor"
)

// provisionPins is the sha256 of TestProvisioningPin's bundle as the
// parent of the training-products kernel, commit 11f1ca5, produced it on
// each kernel path (go test ./internal/tensor; go test -tags noasm
// ./internal/tensor). Training runs through every product in this
// package, so a change anywhere here — or in nn, staged, calib or gp —
// that moves one trained bit fails this test. The 512-bit kernels give
// the AVX2 kernels' bits, so the avx512 pin is the avx2 pin: the two
// paths must provision the same bundle.
var provisionPins = map[string]string{
	"avx2":     "81877a347ec1aa55d259ea534232065db003cc48c760f7e5623bc9ac1ca7a528",
	"avx512":   "81877a347ec1aa55d259ea534232065db003cc48c760f7e5623bc9ac1ca7a528",
	"portable": "82d4cd88ae60eac1eca9149294b6e6a3e65cae41697e025167e042181761ea3c",
}

// TestProvisioningPin runs the paper's provisioning pipeline end to end
// at a small fixed-seed shape — train, calibrate by Eq. 4, fit the GP
// confidence predictor — and compares the model bundle's hash with the
// one recorded from the parent commit, on each kernel path the CPU has
// and at parallelism 1, 2 and 4: the bundle must not depend on the path
// or on how many cores ran it. The shape puts a
// masked column tail and a ragged register tile in both backward
// products (13 inputs, 40 hidden, a 6-wide bottleneck head, 5 classes,
// batches of 20).
func TestProvisioningPin(t *testing.T) {
	paths := tensor.KernelPaths()
	if len(paths) == 0 {
		t.Skip("this build may fuse the portable loops' multiply-adds (arm64, GOAMD64 ≥ v3): no recorded bundle applies")
	}
	if paths[0] == "avx2" && len(paths) == 1 {
		t.Log("this CPU has no AVX-512: the avx512 path is not run")
	}
	defer tensor.UseKernelPath(tensor.KernelPath())
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, path := range paths {
		tensor.UseKernelPath(path)
		for _, par := range []int{1, 2, 4} {
			tensor.SetParallelism(par)
			if got := provisionedBundleHash(t); got != provisionPins[path] {
				t.Fatalf("%s path, parallelism %d: bundle sha256 %s, the parent commit's is %s — training numerics drifted", path, par, got, provisionPins[path])
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
