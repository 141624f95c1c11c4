package staged

import (
	"fmt"

	"eugene/internal/nn"
	"eugene/internal/tensor"
)

// Frozen is a staged model compiled for serving at element type T: every
// stage's stem/body/head is an nn.Program, and ExecStageBatch below is
// the one body in the repository that packs task rows, runs a stage and
// unpacks the result. Hidden states cross stage boundaries as []float64
// rows whatever T is, so the live scheduler, its hidden-row arenas and
// task migration between workers are precision-blind; only the inside of
// a stage runs at T. Confidences are computed in float64 from the
// logits, to keep a reduced tier's early-exit surface as close to the
// float64 model's as its logits allow.
//
// Frozen[float64] aliases the model's weights (see nn.Compile), so it
// costs scratch only; Frozen[float32] packs a half-size copy. A Frozen
// owns scratch — its programs share one set (nn.ShareScratch) — and
// must be driven from one goroutine; Clone (cheap — weights are shared,
// read-only) gives each worker its own.
type Frozen[T tensor.Float] struct {
	In      int
	Classes int
	// Widths is the trunk width at each stage's output.
	Widths []int

	stem   *nn.Program[T]
	bodies []*nn.Program[T]
	heads  []*nn.Program[T]

	// Inference scratch reused across ExecStageBatch calls.
	scrIn    *tensor.Mat[T]
	scrProbs *tensor.Matrix // B×Classes float64 probabilities
	scrOuts  []StageOutput
	scrHid   [][]float64
}

// Frozen32 is Frozen[float32]. cmd/eugenebench names it.
type Frozen32 = Frozen[float32]

// Freeze32 is Freeze[float32]. cmd/eugenebench names it.
func Freeze32(m *Model) (*Frozen32, error) { return Freeze[float32](m) }

// Freeze compiles a trained model into its serving form at T. The model
// is only read. Models the compiler has no ops for — Monte-Carlo
// dropout — are rejected; they run through Predict and PredictRows.
func Freeze[T tensor.Float](m *Model) (*Frozen[T], error) {
	f := &Frozen[T]{In: m.In, Classes: m.Classes, Widths: append([]int(nil), m.Widths...)}
	stem, err := nn.Compile[T](m.Stem, m.In)
	if err != nil {
		return nil, fmt.Errorf("staged: freezing stem: %w", err)
	}
	if stem.Out != m.Widths[0] {
		return nil, fmt.Errorf("staged: frozen stem outputs width %d, stage 0 needs %d", stem.Out, m.Widths[0])
	}
	f.stem = stem
	prev := m.Widths[0]
	for s, st := range m.Stages {
		if s > 0 {
			prev = m.Widths[s-1]
		}
		body, err := nn.Compile[T](st.Body, prev)
		if err != nil {
			return nil, fmt.Errorf("staged: freezing stage %d body: %w", s, err)
		}
		if body.Out != m.Widths[s] {
			return nil, fmt.Errorf("staged: frozen stage %d body outputs width %d, want %d", s, body.Out, m.Widths[s])
		}
		head, err := nn.Compile[T](st.Head, m.Widths[s])
		if err != nil {
			return nil, fmt.Errorf("staged: freezing stage %d head: %w", s, err)
		}
		if head.Out != m.Classes {
			return nil, fmt.Errorf("staged: frozen stage %d head outputs %d classes, want %d", s, head.Out, m.Classes)
		}
		f.bodies = append(f.bodies, body)
		f.heads = append(f.heads, head)
	}
	f.shareScratch()
	return f, nil
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

// shareScratch puts every program of f on one set of scratch buffers:
// ExecStageBatch runs them one after another, each on the last one's
// result, so a worker holds three batch-sized activations (a residual
// block's input, its hidden layer and its sum), not one per layer.
func (f *Frozen[T]) shareScratch() {
	nn.ShareScratch(append(append([]*nn.Program[T]{f.stem}, f.bodies...), f.heads...)...)
}

// NumStages returns the number of exit stages.
func (f *Frozen[T]) NumStages() int { return len(f.bodies) }

// Weights returns every weight matrix the frozen model reads (stem, then
// each stage's body and head): the buffers themselves, shared by every
// Clone. Read-only.
func (f *Frozen[T]) Weights() []*tensor.Mat[T] {
	ws := f.stem.Weights()
	for i := range f.bodies {
		ws = append(append(ws, f.bodies[i].Weights()...), f.heads[i].Weights()...)
	}
	return ws
}

// Clone returns a frozen model for use by another goroutine. Weights are
// shared (never written after Freeze); only scratch is per-clone, so a
// worker pool over one frozen model holds one weight set, not one per
// worker.
func (f *Frozen[T]) Clone() *Frozen[T] {
	c := &Frozen[T]{In: f.In, Classes: f.Classes, Widths: f.Widths, stem: f.stem.Clone()}
	for i := range f.bodies {
		c.bodies = append(c.bodies, f.bodies[i].Clone())
		c.heads = append(c.heads, f.heads[i].Clone())
	}
	c.shareScratch()
	return c
}

// ExecStageBatch executes one stage for a batch of tasks that are all at
// the same stage: hidden holds one task's state per row (raw inputs for
// stage 0, stage s−1 trunk activations otherwise). The whole batch flows
// through the stem/body/head as single B-row matrix multiplications —
// one GEMM per Dense layer instead of B GEMVs — which is what makes
// scheduler-level batching pay at the compute layer.
//
// dst is the caller's (worker-local) scratch handle: when dst[i] has
// capacity for the stage's output width, task i's new hidden state is
// written there instead of a freshly carved slab row, which lets the
// live executor recycle hidden buffers across tasks. dst may be nil or
// shorter than the batch.
//
// Ownership: input rows are only read for stage 0 (callers may retain
// raw inputs), while for stage > 0 the output rows reuse the input rows'
// capacity when wide enough. The returned outer slices and StageOutputs
// are scratch, valid until the next call on this Frozen; Probs is
// omitted on this path.
//
// Rows are converted to T on entry and the new trunk activations back to
// float64 on exit; the conversions are O(B·W) against the stage's
// O(B·W²) GEMMs.
//
//eugene:noalloc
func (f *Frozen[T]) ExecStageBatch(hidden [][]float64, stage int, dst [][]float64) ([][]float64, []StageOutput) {
	b := len(hidden)
	if b == 0 {
		return nil, nil
	}
	if stage < 0 || stage >= len(f.bodies) {
		panic(fmt.Sprintf("staged: ExecStageBatch stage %d outside [0,%d)", stage, len(f.bodies)))
	}
	wantIn := f.In
	if stage > 0 {
		wantIn = f.Widths[stage-1]
	}
	for _, row := range hidden {
		if len(row) != wantIn {
			panic(fmt.Sprintf("staged: ExecStageBatch stage %d input width %d, want %d", stage, len(row), wantIn))
		}
	}
	// Pack task rows into the reused batch matrix.
	f.scrIn = tensor.Ensure(f.scrIn, b, wantIn)
	for i, row := range hidden {
		tensor.Convert(f.scrIn.Row(i), row)
	}
	h := f.scrIn
	if stage == 0 {
		h = f.stem.Forward(h)
	}
	h = f.bodies[stage].Forward(h)
	// Unpack the new hidden states into per-task rows: reuse the task's
	// own buffer in place (stage > 0), else the caller's scratch row,
	// else carve from a fresh slab (the caller's stage-0 input buffers
	// are never written).
	outW := f.Widths[stage]
	if cap(f.scrHid) < b {
		f.scrHid = make([][]float64, b)
	}
	out := f.scrHid[:b]
	var slab []float64
	for i := 0; i < b; i++ {
		row := hidden[i]
		switch {
		case stage > 0 && cap(row) >= outW:
			row = row[:outW]
		case i < len(dst) && cap(dst[i]) >= outW:
			row = dst[i][:outW]
		default:
			if len(slab) < outW {
				slab = make([]float64, (b-i)*outW)
			}
			row = slab[:outW:outW]
			slab = slab[outW:]
		}
		tensor.Convert(row, h.Row(i))
		out[i] = row
	}
	logits := f.heads[stage].Forward(h)
	f.scrProbs = tensor.Ensure(f.scrProbs, b, f.Classes)
	tensor.Softmax(f.scrProbs, logits)
	if cap(f.scrOuts) < b {
		f.scrOuts = make([]StageOutput, b)
	}
	outs := f.scrOuts[:b]
	for i := 0; i < b; i++ {
		pred, conf := tensor.ArgMax(f.scrProbs.Row(i))
		outs[i] = StageOutput{Stage: stage, Pred: pred, Conf: conf}
	}
	return out, outs
}
