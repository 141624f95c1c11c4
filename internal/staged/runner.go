package staged

import (
	"fmt"

	"eugene/internal/tensor"
)

// Runner executes one sample through a model stage by stage, retaining
// the hidden activation between stages. It is the in-process equivalent
// of the paper's worker process: the scheduler decides when (and whether)
// each next stage runs.
//
// A Runner borrows the model it was created from; because layers own
// scratch buffers, all Runners of one *Model must run on the same
// goroutine. It runs the layer tree one sample at a time, which makes it
// the reference the batched engine (Frozen) is tested against, not the
// serving path.
type Runner struct {
	model  *Model
	hidden []float64
	next   int
	probs  *tensor.Matrix
}

// NewRunner prepares stage-by-stage execution of x. The stem runs lazily
// with the first stage.
func (m *Model) NewRunner(x []float64) *Runner {
	if len(x) != m.In {
		panic(fmt.Sprintf("staged: runner input width %d, want %d", len(x), m.In))
	}
	return &Runner{
		model:  m,
		hidden: append([]float64(nil), x...),
		probs:  tensor.NewMatrix(1, m.Classes),
	}
}

// NextStage returns the index of the next stage to execute, or
// NumStages() if the task is complete.
func (r *Runner) NextStage() int { return r.next }

// Done reports whether every stage has executed.
func (r *Runner) Done() bool { return r.next >= len(r.model.Stages) }

// RunStage executes the next stage and returns its exit output.
// It panics if the runner is already done.
func (r *Runner) RunStage() StageOutput {
	if r.Done() {
		panic("staged: RunStage on completed runner")
	}
	hidden, out := r.model.ExecStage(r.hidden, r.next)
	r.hidden = hidden
	r.next++
	return out
}

// ExecStage executes one stage of the model on an explicit hidden state:
// for stage 0, hidden is the raw input sample; for stage s>0 it is the
// trunk activation returned by stage s−1. It returns the new hidden
// state and the stage's exit output. The hidden state is caller-owned
// and the input slice is only read, never written. This is the
// single-sample reference on the layer tree, and the only stage executor
// for models Freeze rejects.
func (m *Model) ExecStage(hidden []float64, stage int) ([]float64, StageOutput) {
	m.checkStageInput(len(hidden), stage)
	in := tensor.FromSlice(1, len(hidden), hidden)
	var h *tensor.Matrix
	if stage == 0 {
		h = m.Stem.Forward(in, false)
	} else {
		h = in
	}
	s := m.Stages[stage]
	h = s.Body.Forward(h, false)
	// Copy the hidden state out of the layer-owned buffer so the next
	// stage survives other tasks of this model interleaving.
	next := append([]float64(nil), h.Row(0)...)
	return next, exitOutput(stage, s.Head.Forward(h, false))
}

// exitOutput turns one sample's logits into the stage's exit tuple, with
// its own copy of the probabilities.
func exitOutput(stage int, logits *tensor.Matrix) StageOutput {
	probs := tensor.NewMatrix(1, logits.Cols)
	tensor.Softmax(probs, logits)
	pred, conf := tensor.ArgMax(probs.Data)
	return StageOutput{Stage: stage, Pred: pred, Conf: conf, Probs: probs.Data}
}

// ExecStageBatch runs one stage for a same-stage batch on the model's
// own float64 compile (Frozen.ExecStageBatch has the contract), built on
// first use. The compile aliases the layers' weights, so training steps
// taken between calls are served; like the rest of a Model it is
// owner-goroutine only. It panics for a model Freeze rejects.
// cmd/eugenebench calls it: its staged rung and its pools drive a
// *Model.
//
//eugene:noalloc
func (m *Model) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []StageOutput) {
	if m.frozen == nil {
		f, err := Freeze[float64](m)
		if err != nil {
			panic(fmt.Sprintf("staged: ExecStageBatch: %v", err))
		}
		m.frozen = f
	}
	return m.frozen.ExecStageBatch(hidden, stage, dst)
}

// checkStageInput panics on an out-of-range stage or a hidden-state width
// that does not match the stage's input width.
func (m *Model) checkStageInput(got, stage int) {
	if stage < 0 || stage >= len(m.Stages) {
		panic(fmt.Sprintf("staged: ExecStage stage %d outside [0,%d)", stage, len(m.Stages)))
	}
	wantIn := m.In
	if stage > 0 {
		wantIn = m.Widths[stage-1]
	}
	if got != wantIn {
		panic(fmt.Sprintf("staged: ExecStage stage %d input width %d, want %d", stage, got, wantIn))
	}
}
