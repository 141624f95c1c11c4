package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"eugene/internal/core"
	"eugene/internal/dataset"
	"eugene/internal/staged"
)

// servingConfig records the shape of the serving benchmark so regressions
// are comparable run to run.
type servingConfig struct {
	MaxBatch int `json:"max_batch"`
	Hidden   int `json:"hidden"`
	Stages   int `json:"stages"`
	Blocks   int `json:"blocks"`
	Rounds   int `json:"rounds"`
}

// servingCell is one (precision, workers, batch) cell of the scaling
// matrix.
type servingCell struct {
	Precision    string  `json:"precision"`
	Workers      int     `json:"workers"`
	Batch        int     `json:"batch"`
	ReqPerSec    float64 `json:"req_per_sec"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	AllocsPerReq float64 `json:"allocs_per_req"`
	BytesPerReq  float64 `json:"bytes_per_req"`
}

// servingScaling summarizes the ratios the roadmap tracks.
type servingScaling struct {
	// BatchedOverSequentialW1 is batch=64 vs batch=1 req/s on one
	// worker at f64 (the compute-layer batching win).
	BatchedOverSequentialW1 float64 `json:"batched_over_sequential_w1"`
	// BatchedW4OverW1 is batch=64 req/s at workers=4 vs workers=1 at
	// f64 (the scheduler-scaling win; ~1.0 on a single-core machine).
	BatchedW4OverW1 float64 `json:"batched_w4_over_w1"`
	// AllocRatioW4OverW1 is batched allocs/req at workers=4 vs
	// workers=1 (arena health: should stay ≈1).
	AllocRatioW4OverW1 float64 `json:"alloc_ratio_w4_over_w1"`
	// F32OverF64W1Batched is batch=64 req/s at workers=1 under f32 vs
	// f64 serving — the precision tier's throughput win, measured in
	// the same run on the same host. The acceptance floor is 1.3x.
	F32OverF64W1Batched float64 `json:"f32_over_f64_w1_batched"`
	// F32ExitAgreement is the fraction of test inputs whose
	// threshold-based early-exit decision (first stage whose confidence
	// clears tau, and the prediction taken there) is identical under
	// f32 and f64. The acceptance floor is 0.999.
	F32ExitAgreement float64 `json:"f32_exit_agreement"`
}

// servingRecord is the BENCH_serving.json schema.
type servingRecord struct {
	Generated  string         `json:"generated"`
	CPUs       int            `json:"cpus"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Config     servingConfig  `json:"config"`
	Matrix     []servingCell  `json:"matrix"`
	Scaling    servingScaling `json:"scaling"`
}

// exitTau is the fixed calibrated-style confidence threshold used for
// the f32-vs-f64 early-exit agreement measurement.
const exitTau = 0.85

// servingBench measures the scheduler scaling matrix — precision ∈
// {f64,f32} × workers ∈ {1,2,4,8} × batch ∈ {1,64} — over one trained
// model, records latency percentiles and allocation counts per cell,
// checks f32-vs-f64 early-exit agreement over the test set, prints a
// table, and writes the JSON record. batch=1 submits requests one at a
// time (Submit); batch=64 uses one SubmitBatch per round.
func servingBench(out string, rounds int) error {
	if rounds < 1 {
		rounds = 1
	}
	const (
		batchSize = 64
		maxBatch  = 32
		hidden    = 256
		stages    = 3
		blocks    = 2
	)
	workerCounts := []int{1, 2, 4, 8}
	precisions := []string{core.PrecisionF64, core.PrecisionF32}
	synth := dataset.SynthConfig{
		Classes: 3, Dim: 32, ModesPerClass: 1,
		TrainSize: 200, TestSize: 100,
		NoiseLo: 0.4, NoiseHi: 1.0, Overlap: 0.1,
	}
	train, test, err := dataset.SynthCIFAR(synth, 17)
	if err != nil {
		return err
	}
	inputs := make([][]float64, batchSize)
	for i := range inputs {
		inputs[i], _ = test.Sample(i % test.Len())
	}

	// One trained model shared by every cell: each service freezes it
	// for its own pool anyway, and retraining per cell would swamp the
	// benchmark.
	fmt.Fprintln(os.Stderr, "benchtab: training the serving benchmark model...")
	opts := core.DefaultTrainOptions(synth.Dim, synth.Classes)
	opts.Model.Hidden = hidden
	opts.Model.BlocksPerStage = blocks
	opts.Train.Epochs = 2
	trainSvc, err := core.NewService(core.DefaultConfig())
	if err != nil {
		return err
	}
	entry, err := trainSvc.Train("bench", train, opts)
	if err != nil {
		trainSvc.Close()
		return err
	}
	model := entry.Model
	trainSvc.Close()

	ctx := context.Background()
	measure := func(precision string, workers, batch int) (servingCell, error) {
		svc, err := core.NewService(core.Config{
			Workers: workers, Deadline: time.Second, QueueDepth: 256,
			Lookahead: 1, MaxBatch: maxBatch, Precision: precision,
		})
		if err != nil {
			return servingCell{}, err
		}
		defer svc.Close()
		if _, err := svc.Register("bench", model.Clone()); err != nil {
			return servingCell{}, err
		}
		// Resubmitting the same input slices is legal under the serving
		// ownership contract: executors only ever read them.
		run := func(lats *[]time.Duration) error {
			if batch == 1 {
				for _, x := range inputs {
					resp, err := svc.Infer(ctx, "bench", x)
					if err != nil {
						return err
					}
					*lats = append(*lats, resp.Latency)
				}
				return nil
			}
			resps, err := svc.InferBatch(ctx, "bench", inputs)
			if err != nil {
				return err
			}
			if len(resps) != batchSize {
				return fmt.Errorf("%d responses for batch of %d", len(resps), batchSize)
			}
			for _, r := range resps {
				*lats = append(*lats, r.Latency)
			}
			return nil
		}
		// A warm-up round (pool start, arena sizing) is excluded from
		// the measured rounds.
		var warm []time.Duration
		if err := run(&warm); err != nil {
			return servingCell{}, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		lats := make([]time.Duration, 0, rounds*batchSize)
		start := time.Now()
		for r := 0; r < rounds; r++ {
			if err := run(&lats); err != nil {
				return servingCell{}, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		reqs := float64(rounds * batchSize)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		n := len(lats)
		return servingCell{
			Precision:    precision,
			Workers:      workers,
			Batch:        batch,
			ReqPerSec:    reqs / elapsed.Seconds(),
			P50MS:        float64(lats[n/2].Microseconds()) / 1000,
			P99MS:        float64(lats[min(n-1, n*99/100)].Microseconds()) / 1000,
			AllocsPerReq: float64(after.Mallocs-before.Mallocs) / reqs,
			BytesPerReq:  float64(after.TotalAlloc-before.TotalAlloc) / reqs,
		}, nil
	}

	rec := servingRecord{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Config: servingConfig{
			MaxBatch: maxBatch, Hidden: hidden,
			Stages: stages, Blocks: blocks, Rounds: rounds,
		},
	}
	type cellKey struct {
		prec       string
		workers, b int
	}
	cell := make(map[cellKey]servingCell)
	for _, prec := range precisions {
		for _, w := range workerCounts {
			for _, b := range []int{1, batchSize} {
				fmt.Fprintf(os.Stderr, "benchtab: serving precision=%s workers=%d batch=%d...\n", prec, w, b)
				c, err := measure(prec, w, b)
				if err != nil {
					return fmt.Errorf("serving bench precision=%s workers=%d batch=%d: %w", prec, w, b, err)
				}
				rec.Matrix = append(rec.Matrix, c)
				cell[cellKey{prec, w, b}] = c
			}
		}
	}
	w1 := cell[cellKey{core.PrecisionF64, 1, batchSize}]
	w4 := cell[cellKey{core.PrecisionF64, 4, batchSize}]
	if s := cell[cellKey{core.PrecisionF64, 1, 1}]; s.ReqPerSec > 0 {
		rec.Scaling.BatchedOverSequentialW1 = w1.ReqPerSec / s.ReqPerSec
	}
	if w1.ReqPerSec > 0 {
		rec.Scaling.BatchedW4OverW1 = w4.ReqPerSec / w1.ReqPerSec
		rec.Scaling.F32OverF64W1Batched = cell[cellKey{core.PrecisionF32, 1, batchSize}].ReqPerSec / w1.ReqPerSec
	}
	if w1.AllocsPerReq > 0 {
		rec.Scaling.AllocRatioW4OverW1 = w4.AllocsPerReq / w1.AllocsPerReq
	}
	agreement, err := exitAgreement(model, test)
	if err != nil {
		return err
	}
	rec.Scaling.F32ExitAgreement = agreement

	fmt.Printf("Serving scaling matrix (MaxBatch %d, hidden %d, %d rounds, GOMAXPROCS %d)\n",
		maxBatch, hidden, rounds, rec.GOMAXPROCS)
	fmt.Printf("  %-5s %-7s %-6s %10s %9s %9s %12s\n", "prec", "workers", "batch", "req/s", "p50 ms", "p99 ms", "allocs/req")
	for _, c := range rec.Matrix {
		fmt.Printf("  %-5s %-7d %-6d %10.0f %9.2f %9.2f %12.1f\n",
			c.Precision, c.Workers, c.Batch, c.ReqPerSec, c.P50MS, c.P99MS, c.AllocsPerReq)
	}
	fmt.Printf("  batched/sequential (1 worker) %.2fx; batched w4/w1 %.2fx; alloc ratio w4/w1 %.2f\n",
		rec.Scaling.BatchedOverSequentialW1, rec.Scaling.BatchedW4OverW1, rec.Scaling.AllocRatioW4OverW1)
	fmt.Printf("  f32/f64 (1 worker, batched) %.2fx; f32 early-exit agreement %.4f (tau %.2f)\n",
		rec.Scaling.F32OverF64W1Batched, rec.Scaling.F32ExitAgreement, exitTau)

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchtab: wrote %s\n", out)
	return nil
}

// exitAgreement runs every test input stage by stage through the f64
// model and its f32 freeze and returns the fraction whose early-exit
// decision — first stage with confidence ≥ exitTau (else the last
// stage), plus the prediction taken there — is identical.
func exitAgreement(model *staged.Model, test *dataset.Set) (float64, error) {
	m64 := model.Clone()
	frozen, err := staged.Freeze[float32](model)
	if err != nil {
		return 0, fmt.Errorf("freezing bench model: %w", err)
	}
	decide := func(exec func(h [][]float64, stage int) ([][]float64, []staged.StageOutput), x []float64) (int, int) {
		h := [][]float64{append([]float64(nil), x...)}
		var last staged.StageOutput
		for s := 0; s < model.NumStages(); s++ {
			next, outs := exec(h, s)
			last = outs[0]
			if last.Conf >= exitTau {
				return last.Stage, last.Pred
			}
			h = [][]float64{append([]float64(nil), next[0]...)}
		}
		return last.Stage, last.Pred
	}
	agree := 0
	n := test.Len()
	for i := 0; i < n; i++ {
		x, _ := test.Sample(i)
		s64, p64 := decide(func(h [][]float64, s int) ([][]float64, []staged.StageOutput) {
			return m64.ExecStageBatch(h, s, nil)
		}, x)
		s32, p32 := decide(func(h [][]float64, s int) ([][]float64, []staged.StageOutput) {
			return frozen.ExecStageBatch(h, s, nil)
		}, x)
		if s64 == s32 && p64 == p32 {
			agree++
		}
	}
	return float64(agree) / float64(n), nil
}
