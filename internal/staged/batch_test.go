package staged

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"eugene/internal/nn"
	"eugene/internal/tensor"
)

// perType runs one test body at each element type a model freezes to.
func perType(t *testing.T, f64, f32 func(*testing.T)) {
	t.Run("f64", f64)
	t.Run("f32", f32)
}

// execFn is the ExecStageBatch contract, whoever implements it.
type execFn func(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []StageOutput)

func randRows(rng *rand.Rand, n, width int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// treeStage runs one stage of m's layer tree for one task: hidden is
// the raw input at stage 0 and the last stage's trunk activation after.
// It returns the new trunk activation, copied out of layer scratch, and
// the stage's exit output: the reference the batched engine is held to.
func treeStage(m *Model, hidden []float64, stage int) ([]float64, StageOutput) {
	h := tensor.FromSlice(1, len(hidden), hidden)
	if stage == 0 {
		h = m.Stem.Forward(h, false)
	}
	s := m.Stages[stage]
	h = s.Body.Forward(h, false)
	next := append([]float64(nil), h.Row(0)...)
	probs := tensor.NewMatrix(1, m.Classes)
	tensor.Softmax(probs, s.Head.Forward(h, false))
	pred, conf := tensor.ArgMax(probs.Data)
	return next, StageOutput{Stage: stage, Pred: pred, Conf: conf}
}

// TestExecStageBatchMatchesLayerTree pins the batched engine to the
// layer tree run one task at a time: running B tasks through
// ExecStageBatch stage by stage must produce the per-task predictions,
// confidences, and hidden states of B independent treeStage chains, and
// keep the buffer-ownership contract (stage-0 inputs never written).
// The dense kernel reduces a row the same way whatever it is batched
// with, and the tree runs the same kernel one row at a time, so float64
// must agree exactly; float32 to float32 tolerance.
func TestExecStageBatchMatchesLayerTree(t *testing.T) {
	// float64 goes through Model.ExecStageBatch, so the delegation to
	// the model's own freeze is what is checked.
	t.Run("f64", func(t *testing.T) {
		testExecStageBatchMatchesLayerTree(t, 0, func(m *Model) execFn { return m.ExecStageBatch })
	})
	t.Run("f32", func(t *testing.T) {
		testExecStageBatchMatchesLayerTree(t, 1e-4, func(m *Model) execFn {
			f, err := Freeze[float32](m)
			if err != nil {
				t.Fatalf("Freeze: %v", err)
			}
			if got, want := f.NumStages(), m.NumStages(); got != want {
				t.Fatalf("frozen has %d stages, want %d", got, want)
			}
			return f.ExecStageBatch
		})
	})
}

func testExecStageBatchMatchesLayerTree(t *testing.T, tol float64, engine func(*Model) execFn) {
	for _, b := range []int{1, 6} {
		t.Run(fmt.Sprintf("B=%d", b), func(t *testing.T) {
			testExecStageBatchRows(t, b, tol, engine)
		})
	}
}

func testExecStageBatchRows(t *testing.T, b int, tol float64, engine func(*Model) execFn) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{
		In: 12, Hidden: 24, Classes: 4,
		StageCount: 3, BlocksPerStage: 2,
		StageWidths:     []int{16, 24, 24}, // exercise a projection between stages
		HeadBottlenecks: []int{8, 0, 0},
		HeadDropout:     0.1, // inference identity; freeze must skip it
	}
	m, err := New(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := engine(m)
	// Separate clone for the single-sample chains so scratch reuse in
	// one path cannot mask a bug in the other.
	single := m.Clone()

	// The input rows carry spare capacity beyond the widest stage
	// output, as the rows core.InferBatch's callers pass do (only the
	// wire decoder cuts rows to cap == len): with cap == len the
	// in-place branch could not fire on them and the ownership check
	// below would pass whatever the engine did.
	inputs := randRows(rng, b, cfg.In)
	for i, row := range inputs {
		inputs[i] = append(make([]float64, 0, 64), row...)
	}
	pristine := make([][]float64, b)
	batchHidden := make([][]float64, b)
	singleHidden := make([][]float64, b)
	for i := range inputs {
		pristine[i] = append([]float64(nil), inputs[i]...)
		batchHidden[i] = inputs[i]
		singleHidden[i] = inputs[i]
	}

	// Alternate between nil scratch and worker-style reusable rows so
	// both unpack paths stay covered.
	scratch := make([][]float64, b)
	for i := range scratch {
		scratch[i] = make([]float64, 0, 64)
	}
	for stage := 0; stage < m.NumStages(); stage++ {
		dst := scratch
		if stage%2 == 1 {
			dst = nil
		}
		next, outs := exec(batchHidden, stage, dst)
		if len(next) != b || len(outs) != b {
			t.Fatalf("stage %d: batch returned %d hidden, %d outputs", stage, len(next), len(outs))
		}
		// Stage-0 ownership contract: the raw input slices are never
		// written by the batch path. Checked before the reference chain
		// reads the same rows.
		for i := range inputs {
			for j := range inputs[i] {
				if inputs[i][j] != pristine[i][j] {
					t.Fatalf("stage %d wrote input row %d at %d: callers keep their rows", stage, i, j)
				}
			}
		}
		for i := 0; i < b; i++ {
			wantHidden, want := treeStage(single, singleHidden[i], stage)
			singleHidden[i] = wantHidden
			if outs[i].Pred != want.Pred {
				t.Fatalf("stage %d task %d: pred %d, want %d (conf %v vs %v)", stage, i, outs[i].Pred, want.Pred, outs[i].Conf, want.Conf)
			}
			if math.Abs(outs[i].Conf-want.Conf) > tol {
				t.Fatalf("stage %d task %d: conf %v, want %v", stage, i, outs[i].Conf, want.Conf)
			}
			if len(next[i]) != len(wantHidden) {
				t.Fatalf("stage %d task %d: hidden width %d, want %d", stage, i, len(next[i]), len(wantHidden))
			}
			for j := range wantHidden {
				if math.Abs(next[i][j]-wantHidden[j]) > tol*math.Max(1, math.Abs(wantHidden[j])) {
					t.Fatalf("stage %d task %d: hidden[%d] = %v, want %v", stage, i, j, next[i][j], wantHidden[j])
				}
			}
		}
		// The scheduler hands each task its own row back; copy out of
		// the batch scratch like the live executor does.
		for i := 0; i < b; i++ {
			batchHidden[i] = next[i]
		}
	}
}

// TestExecStageBatchSingleton checks the B=1 and B=0 edges of the batch
// path.
func TestExecStageBatchSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, err := New(rng, Config{In: 6, Hidden: 10, Classes: 3, StageCount: 2, BlocksPerStage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h, o := m.ExecStageBatch(nil, 0, nil); h != nil || o != nil {
		t.Fatalf("empty batch returned %v, %v", h, o)
	}
	x := randRows(rng, 1, 6)[0]
	next, outs := m.ExecStageBatch([][]float64{x}, 0, nil)
	if len(next) != 1 || len(outs) != 1 {
		t.Fatalf("singleton batch returned %d hidden, %d outputs", len(next), len(outs))
	}
	wantHidden, want := treeStage(m.Clone(), x, 0)
	if outs[0].Pred != want.Pred || math.Abs(outs[0].Conf-want.Conf) > 1e-9 {
		t.Fatalf("singleton (%d, %v), want (%d, %v)", outs[0].Pred, outs[0].Conf, want.Pred, want.Conf)
	}
	for j := range wantHidden {
		if math.Abs(next[0][j]-wantHidden[j]) > 1e-9 {
			t.Fatalf("singleton hidden[%d] = %v, want %v", j, next[0][j], wantHidden[j])
		}
	}
}

// TestExecStageBatchServesTrainingSteps: Model.ExecStageBatch runs a
// compile of the model, and that compile must not be a snapshot of the
// weights — an optimizer step taken after the first call changes the
// next answer.
func TestExecStageBatchServesTrainingSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := New(rng, Config{In: 6, Hidden: 10, Classes: 3, StageCount: 2, BlocksPerStage: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := randRows(rng, 4, 6)
	_, outs := m.ExecStageBatch(rows, 0, nil)
	before := make([]float64, len(outs))
	for i, o := range outs {
		before[i] = o.Conf
	}

	x := tensor.NewMatrix(len(rows), 6)
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	logits := m.ForwardAll(x, true)
	grads := make([]*tensor.Matrix, len(logits))
	for i, l := range logits {
		grads[i] = tensor.NewMatrix(l.Rows, l.Cols)
		nn.SoftmaxCE(grads[i], l, []int{0, 1, 2, 0}, 0)
	}
	m.Backward(grads)
	nn.NewSGD(0.5, 0, 0).Step(m.Params())

	_, outs = m.ExecStageBatch(rows, 0, nil)
	for i, o := range outs {
		if o.Conf != before[i] {
			return
		}
	}
	t.Fatal("ExecStageBatch served the weights from before the optimizer step")
}

// TestFrozenCloneSharesWeightsNotScratch: a clone reads the very weight
// arrays of the original (at float64 those are the model's own), and
// has scratch of its own — the outputs of one survive a call on the
// other.
func TestFrozenCloneSharesWeightsNotScratch(t *testing.T) {
	perType(t, testFrozenCloneShares[float64], testFrozenCloneShares[float32])
}

func testFrozenCloneShares[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := New(rng, Config{In: 8, Hidden: 16, Classes: 3, StageCount: 2, BlocksPerStage: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Freeze[T](m)
	if err != nil {
		t.Fatal(err)
	}
	c := f.Clone()
	fw, cw := f.Weights(), c.Weights()
	if len(fw) == 0 || len(fw) != len(cw) {
		t.Fatalf("%d weight matrices, clone has %d", len(fw), len(cw))
	}
	for i := range fw {
		if &fw[i].Data[0] != &cw[i].Data[0] {
			t.Fatalf("weight %d: clone has its own backing array", i)
		}
	}
	if w64, ok := any(fw[0]).(*tensor.Matrix); ok && &w64.Data[0] != &m.Params()[0].Value[0] {
		t.Fatal("float64 freeze copied the model's weights")
	}

	_, outs := f.ExecStageBatch(randRows(rng, 4, 8), 0, nil)
	want := append([]StageOutput(nil), outs...)
	next, _ := c.ExecStageBatch(randRows(rng, 4, 8), 0, nil)
	for i := range want {
		if outs[i].Pred != want[i].Pred || outs[i].Conf != want[i].Conf {
			t.Fatalf("output %d of the original changed when its clone ran: scratch is shared", i)
		}
	}
	if len(next) != 4 {
		t.Fatalf("clone returned %d rows", len(next))
	}
}

// TestFrozenCloneConcurrentServing drives several clones of one frozen
// model from concurrent goroutines (the worker-pool shape) under -race:
// shared weights must be read-only, per-clone scratch private, and every
// clone must agree with the original.
func TestFrozenCloneConcurrentServing(t *testing.T) {
	perType(t, testFrozenCloneConcurrent[float64], testFrozenCloneConcurrent[float32])
}

func testFrozenCloneConcurrent[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := New(rng, Config{In: 8, Hidden: 16, Classes: 3, StageCount: 2, BlocksPerStage: 1})
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := Freeze[T](m)
	if err != nil {
		t.Fatal(err)
	}
	const b = 4
	inputs := randRows(rng, b, 8)
	_, refOuts := frozen.ExecStageBatch(inputs, 0, nil)
	refPreds := make([]int, b)
	refConfs := make([]float64, b)
	for i, o := range refOuts {
		refPreds[i], refConfs[i] = o.Pred, o.Conf
	}

	var wg sync.WaitGroup
	var diverged atomic.Bool
	for w := 0; w < 4; w++ {
		clone := frozen.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 25; rep++ {
				rows := make([][]float64, b)
				copy(rows, inputs)
				_, outs := clone.ExecStageBatch(rows, 0, nil)
				for i, o := range outs {
					if o.Pred != refPreds[i] || o.Conf != refConfs[i] {
						diverged.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if diverged.Load() {
		t.Fatal("concurrent clone diverged from reference")
	}
}

// TestFreezeRejects: what the compiler has no ops for fails at Freeze,
// at either type, and still runs on the tree.
func TestFreezeRejects(t *testing.T) {
	perType(t, testFreezeRejects[float64], testFreezeRejects[float32])
}

func testFreezeRejects[T tensor.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// A model flipped to the RDeepSense MC baseline: masks are sampled
	// per forward pass.
	m, err := New(rng, Config{In: 6, Hidden: 8, Classes: 3, StageCount: 2, BlocksPerStage: 1, HeadDropout: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Stages {
		nn.SetMCDropout(s.Head, true)
	}
	if _, err := Freeze[T](m); err == nil {
		t.Fatal("Freeze accepted MC dropout")
	}
	if outs := m.Predict(make([]float64, 6), 1); len(outs) != 2 {
		t.Fatalf("MC dropout Predict returned %d outputs", len(outs))
	}
}
