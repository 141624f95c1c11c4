package staged

import (
	"math/rand"
	"testing"

	"eugene/internal/tensor"
)

// TestExecStageBatchAllocs is the dynamic half of the hotpathalloc
// contract on the batched forward path (the //eugene:noalloc
// annotation on Frozen.ExecStageBatch, at both element types):
// once the packed batch matrices and unpack scratch have been sized by
// a warmup, a full stage-by-stage chain over a batch must run
// allocation-free — stage outputs land in the caller's dst rows or
// reuse the task rows in place, never in fresh slabs.
func TestExecStageBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the non-race CI step")
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	for _, shape := range []struct {
		name  string
		cfg   Config
		batch int
	}{
		{"small", Config{
			In: 12, Hidden: 24, Classes: 4,
			StageCount: 3, BlocksPerStage: 2,
			StageWidths: []int{16, 24, 24},
		}, 8},
		// The model cmd/eugenebench serves, at the scheduler's MaxBatch:
		// its block GEMMs are 4 M mul-adds each.
		{"serving", Config{
			In: 32, Hidden: 256, Classes: 10,
			StageCount: 3, BlocksPerStage: 2,
			HeadBottlenecks: []int{8, 12, 0},
		}, 64},
	} {
		rng := rand.New(rand.NewSource(11))
		cfg, b := shape.cfg, shape.batch
		m, err := New(rng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f32, err := Freeze[float32](m)
		if err != nil {
			t.Fatal(err)
		}

		inputs := make([][]float64, b)
		for i := range inputs {
			inputs[i] = make([]float64, cfg.In)
			for j := range inputs[i] {
				inputs[i][j] = rng.NormFloat64()
			}
		}
		// Worker-style reusable output rows, wide enough for every stage.
		dst := make([][]float64, b)
		for i := range dst {
			dst[i] = make([]float64, 0, cfg.Hidden)
		}
		hidden := make([][]float64, b)

		type execFn func(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []StageOutput)
		for _, tc := range []struct {
			name string
			exec execFn
		}{
			{"f64", m.ExecStageBatch},
			{"f32", f32.ExecStageBatch},
		} {
			chain := func() {
				// Stage 0 reads the pristine inputs and writes into dst;
				// later stages reuse the rows in place.
				copy(hidden, inputs)
				h := hidden
				for stage := 0; stage < m.NumStages(); stage++ {
					h, _ = tc.exec(h, stage, dst)
				}
			}
			for i := 0; i < 10; i++ {
				chain() // size scrIn/scrHid/scrOuts and claim the dst rows
			}
			avg := testing.AllocsPerRun(100, chain)
			t.Logf("%s %s: %.4f allocs per %d-task chain", shape.name, tc.name, avg, b)
			if avg != 0 {
				t.Errorf("%s %s: %.4f allocs per chain, want 0 — batch scratch reuse regressed", shape.name, tc.name, avg)
			}
		}
	}
}
