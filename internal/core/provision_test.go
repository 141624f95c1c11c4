package core

import (
	"fmt"
	"testing"
	"time"

	"eugene/internal/calib"
	"eugene/internal/dataset"
	"eugene/internal/sched"
	"eugene/internal/tensor"
)

// BenchmarkProvision is the benchmark's set-up without its serving
// stack: cmd/eugenebench's frozen corpus and model (32 inputs, hidden
// 256, 3 stages × 2 blocks, heads 8/12/0, 200 rows × 3 epochs in batches
// of 20, 128 calibration rows) trained, calibrated by Eq. 4 and given
// its GP confidence predictor, as trainSnapshot does. Each phase is
// reported in ms per provisioning: train (with its accuracy pass),
// calibrate, predictor; ns/op is the three together. The p1 and p2
// sub-benchmarks run at tensor.SetParallelism 1 and 2: the single-core
// path, and the benchmark host's two cores.
func BenchmarkProvision(b *testing.B) {
	train, test, err := dataset.SynthCIFAR(dataset.SynthConfig{
		Classes: 10, Dim: 32, ModesPerClass: 2, TrainSize: 200, TestSize: 128,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}, 17)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultTrainOptions(32, 10)
	opts.Model.Hidden = 256
	opts.Model.StageCount = 3
	opts.Model.BlocksPerStage = 2
	opts.Model.HeadBottlenecks = []int{8, 12, 0}
	opts.Model.HeadDropout = 0
	opts.Train.Epochs = 3
	opts.Train.BatchSize = 20
	opts.Seed = 17
	svc, err := NewService(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, par := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", par), func(b *testing.B) {
			tensor.SetParallelism(par)
			var phases [3]time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := svc.Train("bench", train, opts); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := svc.Calibrate("bench", test, calib.DefaultEntropyCalibConfig()); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				if err := svc.BuildPredictor("bench", test, sched.DefaultGPPredictorConfig()); err != nil {
					b.Fatal(err)
				}
				phases[0] += t1.Sub(t0)
				phases[1] += t2.Sub(t1)
				phases[2] += time.Since(t2)
			}
			for i, name := range []string{"train_ms", "calibrate_ms", "predictor_ms"} {
				b.ReportMetric(float64(phases[i].Microseconds())/1e3/float64(b.N), name)
			}
		})
	}
}
