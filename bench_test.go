// Serving-path throughput benchmark. The paper's tables and figures are
// tests: go test -v -run TestPaper ./internal/experiments prints them
// beside the paper's values.
package eugene

import (
	"context"
	"sync"
	"testing"
	"time"

	"eugene/internal/core"
	"eugene/internal/dataset"
)

// servePrecisions are the serving tiers the benchmark compares.
var servePrecisions = []string{core.PrecisionF64, core.PrecisionF32}

var (
	serveOnce sync.Once
	serveSvcs map[string]*Service
	serveSet  *Set
	serveErr  error
)

// benchServe trains one small model and serves it behind a 1-worker
// service per precision, shared across the serving benchmarks. One
// worker isolates what batching buys at the compute layer: with no pool
// parallelism to hide behind, the batched path wins only by turning
// per-task GEMVs into stage GEMMs.
func benchServe(b *testing.B) (map[string]*Service, *Set) {
	b.Helper()
	serveOnce.Do(func() {
		// Paper-scale-ish stages: wide enough that per-stage compute
		// dominates scheduling overhead, as in real serving.
		cfg := dataset.SynthConfig{
			Classes: 3, Dim: 32, ModesPerClass: 1,
			TrainSize: 200, TestSize: 100,
			NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
		}
		train, test, err := dataset.SynthCIFAR(cfg, 17)
		if err != nil {
			serveErr = err
			return
		}
		serveSvcs = make(map[string]*Service, len(servePrecisions))
		var snap []byte
		for _, prec := range servePrecisions {
			// MaxBatch matches the benchmark batch so each stage runs as a
			// single coalesced GEMM group.
			svc, err := NewService(Config{Workers: 1, Deadline: time.Second, QueueDepth: 256,
				Lookahead: 1, MaxBatch: 64, Precision: prec})
			if err != nil {
				serveErr = err
				return
			}
			serveSvcs[prec] = svc
			// The first service trains the model; the others install its
			// snapshot, so every precision serves the same weights.
			if snap == nil {
				opts := DefaultTrainOptions(32, 3)
				opts.Model.Hidden = 256
				opts.Model.BlocksPerStage = 2
				opts.Train.Epochs = 2
				if _, serveErr = svc.Train("bench", train, opts); serveErr == nil {
					snap, serveErr = svc.SnapshotBytes("bench")
				}
			} else {
				serveErr = svc.InstallSnapshotBytes("bench", snap)
			}
			if serveErr != nil {
				return
			}
		}
		serveSet = test
	})
	if serveErr != nil {
		b.Fatal(serveErr)
	}
	return serveSvcs, serveSet
}

// BenchmarkInferSequentialVsBatch compares N one-at-a-time Infer calls
// against a single InferBatch over the same inputs on a 1-worker pool,
// at each precision: the batch path enqueues every task in one
// scheduler interaction and the scheduler coalesces same-stage tasks
// into single batched forward passes (one GEMM per Dense layer instead
// of one GEMV per task), where the sequential path pays a full
// submit/answer round trip and a 1×N matvec chain per sample. The req/s
// metric is the headline; batched must beat sequential, and ms/row of
// the sequential run is a single row's latency. allocs/op tracks the
// allocation-free kernel work (note the sequential figure covers 64
// requests per op, the batched figure one 64-request batch per op).
func BenchmarkInferSequentialVsBatch(b *testing.B) {
	svcs, test := benchServe(b)
	const batch = 64
	inputs := make([][]float64, batch)
	for i := range inputs {
		inputs[i], _ = test.Sample(i % test.Len())
	}
	ctx := context.Background()
	report := func(b *testing.B) {
		rows := float64(batch * b.N)
		b.ReportMetric(rows/b.Elapsed().Seconds(), "req/s")
		b.ReportMetric(b.Elapsed().Seconds()*1e3/rows, "ms/row")
	}
	for _, prec := range servePrecisions {
		svc := svcs[prec]
		b.Run(prec+"/sequential", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, x := range inputs {
					if _, err := svc.Infer(ctx, "bench", x); err != nil {
						b.Fatal(err)
					}
				}
			}
			report(b)
		})
		b.Run(prec+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resps, err := svc.InferBatch(ctx, "bench", inputs)
				if err != nil {
					b.Fatal(err)
				}
				if len(resps) != batch {
					b.Fatalf("%d responses", len(resps))
				}
			}
			report(b)
		})
	}
}
