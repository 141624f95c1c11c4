// Package staged implements Eugene's multi-exit neural networks
// (paper Figure 3): a trunk divided into stages, each stage ending in a
// thin softmax classifier head. Intermediate heads let the scheduler stop
// execution early once confidence is high enough, and expose the
// per-stage (prediction, confidence) tuples the RTDeepIoT scheduler
// consumes.
//
// Model is the trainable form, layer trees in float64; Frozen is the
// form that is served, the model compiled once at float64 or float32
// (Freeze), one clone per worker over shared weights. The model's own
// Predict, ExecStage and Runner run the trees one sample at a time:
// the reference the batched engine is tested against, and the path for
// what Freeze rejects (Monte-Carlo dropout).
package staged

import (
	"fmt"
	"math/rand"

	"eugene/internal/nn"
	"eugene/internal/tensor"
)

// Stage is one segment of the trunk plus its exit classifier.
type Stage struct {
	Body nn.Layer // hidden → hidden
	Head nn.Layer // hidden → classes (logits)
}

// Model is a stem plus a sequence of stages: the layer trees training
// builds. It is not safe for concurrent use. Serving does not clone it:
// Freeze compiles it once and each worker of the pool (the paper's pool
// of worker processes) gets a Frozen.Clone, which shares the weights.
type Model struct {
	Stem    nn.Layer
	Stages  []*Stage
	In      int
	Hidden  int
	Classes int
	// Widths is the trunk width at each stage's output.
	Widths []int

	// frozen is what ExecStageBatch runs (owner-goroutine only, like the
	// layers' own buffers). Clone leaves it nil.
	frozen *Frozen[float64]
}

// Config describes the paper-style staged residual network.
type Config struct {
	// In is the input feature width.
	In int
	// Hidden is the trunk width.
	Hidden int
	// Classes is the number of output classes.
	Classes int
	// StageCount is the number of stages (paper: 3).
	StageCount int
	// BlocksPerStage is the number of residual blocks per stage
	// (paper: 3 shortcut connections per stage).
	BlocksPerStage int
	// StageWidths optionally sets a per-stage trunk width (length must
	// equal StageCount); nil means every stage uses Hidden. A
	// narrow-to-wide ladder mirrors real convolutional trunks, where
	// early exits see cheaper, less expressive features — the source
	// of the accuracy-vs-depth trade-off the scheduler exploits.
	StageWidths []int
	// HeadBottlenecks optionally gives stage s's exit head a
	// Dense(width→HeadBottlenecks[s])+ReLU bottleneck before its
	// softmax layer (0 = plain linear head). Thin early heads cap the
	// accuracy of shallow exits without constraining the trunk,
	// producing the accuracy-vs-depth gradient the scheduler exploits
	// (the paper's "thin softmax function layer" at each stage).
	HeadBottlenecks []int
	// HeadDropout is the dropout rate inside each classifier head;
	// nonzero rates enable the RDeepSense MC-dropout baseline.
	HeadDropout float64
}

// DefaultConfig mirrors the paper's three-stage residual network at
// SynthCIFAR scale.
func DefaultConfig(in, classes int) Config {
	return Config{
		In:             in,
		Hidden:         96,
		Classes:        classes,
		StageCount:     3,
		BlocksPerStage: 2,
		HeadDropout:    0.15,
	}
}

// Validate reports an error for degenerate configurations.
func (c Config) Validate() error {
	switch {
	case c.In < 1 || c.Hidden < 1 || c.Classes < 2:
		return fmt.Errorf("staged: bad dims in=%d hidden=%d classes=%d", c.In, c.Hidden, c.Classes)
	case c.StageCount < 1:
		return fmt.Errorf("staged: need ≥1 stage, got %d", c.StageCount)
	case c.BlocksPerStage < 1:
		return fmt.Errorf("staged: need ≥1 block per stage, got %d", c.BlocksPerStage)
	case c.HeadDropout < 0 || c.HeadDropout >= 1:
		return fmt.Errorf("staged: head dropout %v outside [0,1)", c.HeadDropout)
	}
	if c.StageWidths != nil {
		if len(c.StageWidths) != c.StageCount {
			return fmt.Errorf("staged: %d stage widths for %d stages", len(c.StageWidths), c.StageCount)
		}
		for i, w := range c.StageWidths {
			if w < 1 {
				return fmt.Errorf("staged: stage %d width %d must be positive", i, w)
			}
		}
	}
	if c.HeadBottlenecks != nil {
		if len(c.HeadBottlenecks) != c.StageCount {
			return fmt.Errorf("staged: %d head bottlenecks for %d stages", len(c.HeadBottlenecks), c.StageCount)
		}
		for i, w := range c.HeadBottlenecks {
			if w < 0 {
				return fmt.Errorf("staged: stage %d head bottleneck %d must be ≥0", i, w)
			}
		}
	}
	return nil
}

// New builds a staged residual MLP per the configuration. Weights are
// deterministic given rng.
func New(rng *rand.Rand, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	widths := cfg.StageWidths
	if widths == nil {
		widths = make([]int, cfg.StageCount)
		for i := range widths {
			widths[i] = cfg.Hidden
		}
	}
	m := &Model{
		In:      cfg.In,
		Hidden:  cfg.Hidden,
		Classes: cfg.Classes,
		Widths:  append([]int(nil), widths...),
		Stem:    nn.NewSequential(nn.NewDense(rng, cfg.In, widths[0]), nn.NewReLU()),
	}
	for s := 0; s < cfg.StageCount; s++ {
		w := widths[s]
		var blocks []nn.Layer
		if s > 0 && widths[s-1] != w {
			// Projection between stages of different width.
			blocks = append(blocks, nn.NewDense(rng, widths[s-1], w), nn.NewReLU())
		}
		for b := 0; b < cfg.BlocksPerStage; b++ {
			body := nn.NewSequential(
				nn.NewDense(rng, w, w),
				nn.NewReLU(),
				nn.NewDense(rng, w, w),
			)
			blocks = append(blocks, nn.NewResidual(body), nn.NewReLU())
		}
		var head []nn.Layer
		headIn := w
		if cfg.HeadBottlenecks != nil && cfg.HeadBottlenecks[s] > 0 {
			head = append(head, nn.NewDense(rng, w, cfg.HeadBottlenecks[s]), nn.NewReLU())
			headIn = cfg.HeadBottlenecks[s]
		}
		if cfg.HeadDropout > 0 {
			head = append(head, nn.NewDropout(rng, cfg.HeadDropout))
		}
		head = append(head, nn.NewDense(rng, headIn, cfg.Classes))
		m.Stages = append(m.Stages, &Stage{
			Body: nn.NewSequential(blocks...),
			Head: nn.NewSequential(head...),
		})
	}
	return m, nil
}

// ParamCount is the number of parameters New builds for c, a Config
// Validate accepts, counted without building anything: a float64, which
// no request's sizes overflow.
func (c Config) ParamCount() float64 {
	dense := func(in, out int) float64 { return float64(in)*float64(out) + float64(out) }
	if c.StageWidths == nil && c.HeadBottlenecks == nil {
		// Every stage alike: no loop over a StageCount a caller chose.
		w := c.Hidden
		return dense(c.In, w) + float64(c.StageCount)*(float64(c.BlocksPerStage)*2*dense(w, w)+dense(w, c.Classes))
	}
	n, prev := 0.0, c.In
	for s := range c.StageCount {
		w := c.Hidden
		if c.StageWidths != nil {
			w = c.StageWidths[s]
		}
		if s == 0 || prev != w {
			n += dense(prev, w) // the stem, or a projection between widths
		}
		prev = w
		headIn := w
		if c.HeadBottlenecks != nil && c.HeadBottlenecks[s] > 0 {
			headIn = c.HeadBottlenecks[s]
			n += dense(w, headIn)
		}
		n += float64(c.BlocksPerStage)*2*dense(w, w) + dense(headIn, c.Classes)
	}
	return n
}

// FromParts reassembles a model from decoded components (the snapshot
// restore path), validating the full topology: widths must chain
// In→Widths[0] through the stem, Widths[s-1]→Widths[s] through each
// stage body, and Widths[s]→Classes through each head. Validation here
// is what lets the service run a restored model without re-checking
// anything on the hot path — a width mismatch would otherwise panic a
// serving worker mid-stage.
func FromParts(stem nn.Layer, stages []*Stage, in, hidden, classes int, widths []int) (*Model, error) {
	if in < 1 || hidden < 1 || classes < 2 {
		return nil, fmt.Errorf("staged: bad dims in=%d hidden=%d classes=%d", in, hidden, classes)
	}
	if len(stages) < 1 {
		return nil, fmt.Errorf("staged: need ≥1 stage, got %d", len(stages))
	}
	if len(widths) != len(stages) {
		return nil, fmt.Errorf("staged: %d widths for %d stages", len(widths), len(stages))
	}
	if stem == nil {
		return nil, fmt.Errorf("staged: nil stem")
	}
	if out, err := nn.OutputWidth(stem, in); err != nil {
		return nil, fmt.Errorf("staged: stem: %w", err)
	} else if out != widths[0] {
		return nil, fmt.Errorf("staged: stem outputs width %d, stage 0 needs %d", out, widths[0])
	}
	prev := widths[0]
	for s, st := range stages {
		if st == nil || st.Body == nil || st.Head == nil {
			return nil, fmt.Errorf("staged: stage %d incomplete", s)
		}
		if s > 0 {
			prev = widths[s-1]
		}
		if out, err := nn.OutputWidth(st.Body, prev); err != nil {
			return nil, fmt.Errorf("staged: stage %d body: %w", s, err)
		} else if out != widths[s] {
			return nil, fmt.Errorf("staged: stage %d body outputs width %d, want %d", s, out, widths[s])
		}
		if out, err := nn.OutputWidth(st.Head, widths[s]); err != nil {
			return nil, fmt.Errorf("staged: stage %d head: %w", s, err)
		} else if out != classes {
			return nil, fmt.Errorf("staged: stage %d head outputs %d classes, want %d", s, out, classes)
		}
	}
	return &Model{
		Stem:    stem,
		Stages:  stages,
		In:      in,
		Hidden:  hidden,
		Classes: classes,
		Widths:  append([]int(nil), widths...),
	}, nil
}

// NumStages returns the number of exit stages.
func (m *Model) NumStages() int { return len(m.Stages) }

// Clone deep-copies the model, parameters and gradient buffers
// included: for work that changes or trains a copy (calibration), not
// for serving.
func (m *Model) Clone() *Model {
	c := &Model{
		Stem:    m.Stem.Clone(),
		In:      m.In,
		Hidden:  m.Hidden,
		Classes: m.Classes,
		Widths:  append([]int(nil), m.Widths...),
	}
	for _, s := range m.Stages {
		c.Stages = append(c.Stages, &Stage{Body: s.Body.Clone(), Head: s.Head.Clone()})
	}
	return c
}

// Params returns every trainable parameter (trunk and heads).
func (m *Model) Params() []nn.Param {
	ps := m.Stem.Params()
	for _, s := range m.Stages {
		ps = append(ps, s.Body.Params()...)
		ps = append(ps, s.Head.Params()...)
	}
	return ps
}

// HeadParams returns only the exit-classifier parameters; calibration
// fine-tuning (paper Eq. 4) updates these while freezing the trunk.
func (m *Model) HeadParams() []nn.Param {
	var ps []nn.Param
	for _, s := range m.Stages {
		ps = append(ps, s.Head.Params()...)
	}
	return ps
}

// StageOutput is the per-exit result tuple the paper's workers report to
// the scheduler: arg-max prediction and its softmax confidence.
type StageOutput struct {
	Stage int       `json:"stage"`
	Pred  int       `json:"pred"`
	Conf  float64   `json:"conf"`
	Probs []float64 `json:"probs,omitempty"`
}

// ForwardAll runs the batch through every stage and returns per-stage
// logits. When train is true, activations are cached for Backward.
//
// The logit matrices are the heads' own output buffers, not copies: the
// next forward pass through the model (ForwardAll, Predict, ExecStage,
// a Runner) overwrites them. Read or copy what is needed before that.
func (m *Model) ForwardAll(x *tensor.Matrix, train bool) []*tensor.Matrix {
	h := m.Stem.Forward(x, train)
	logits := make([]*tensor.Matrix, len(m.Stages))
	for i, s := range m.Stages {
		h = s.Body.Forward(h, train)
		logits[i] = s.Head.Forward(h, train)
	}
	return logits
}

// Backward propagates per-stage logit gradients (deep supervision)
// through heads and trunk, accumulating parameter gradients.
func (m *Model) Backward(gradLogits []*tensor.Matrix) {
	if len(gradLogits) != len(m.Stages) {
		panic(fmt.Sprintf("staged: got %d gradients for %d stages", len(gradLogits), len(m.Stages)))
	}
	var gTrunk *tensor.Matrix
	for i := len(m.Stages) - 1; i >= 0; i-- {
		s := m.Stages[i]
		g := s.Head.Backward(gradLogits[i])
		if gTrunk != nil {
			// Combine gradient from this head with gradient flowing
			// back from deeper stages.
			sum := tensor.NewMatrix(g.Rows, g.Cols)
			tensor.Add(sum, g, gTrunk)
			g = sum
		}
		gTrunk = s.Body.Backward(g)
	}
	m.Stem.Backward(gTrunk)
}

// Predict runs one sample through stages [0, upTo] (inclusive) and
// returns the outputs of every executed stage. upTo = NumStages()-1 runs
// the full network.
func (m *Model) Predict(x []float64, upTo int) []StageOutput {
	if upTo < 0 || upTo >= len(m.Stages) {
		panic(fmt.Sprintf("staged: stage %d outside [0,%d)", upTo, len(m.Stages)))
	}
	in := tensor.FromSlice(1, len(x), x)
	h := m.Stem.Forward(in, false)
	outs := make([]StageOutput, 0, upTo+1)
	for i := 0; i <= upTo; i++ {
		s := m.Stages[i]
		h = s.Body.Forward(h, false)
		outs = append(outs, exitOutput(i, s.Head.Forward(h, false)))
	}
	return outs
}

// predictBlock is the most rows PredictRows sends through one forward
// pass: the served batch, so a block's products are the shapes serving
// runs (64 × 256 × 256 at the largest) and its scratch a served batch's.
// Evaluation runs on its caller's core, as the one-row passes did.
const predictBlock = 64

// PredictRows is Predict through the whole network for every row of x:
// out[i] is Predict(x.Row(i), NumStages()-1), bit for bit, because the
// dense kernel's result for a row does not depend on the rows it is
// batched with and every other layer works row by row. The rows go
// through ForwardAll in blocks of up to predictBlock, so a set costs a
// forward pass per block instead of one per row. The one exception is
// Monte-Carlo dropout, whose masks are drawn in block order rather than
// row order: same distribution, other draws.
func (m *Model) PredictRows(x *tensor.Matrix) [][]StageOutput {
	stages := len(m.Stages)
	out := make([][]StageOutput, x.Rows)
	flat := make([]StageOutput, x.Rows*stages)
	// Stage s's probabilities for every row, contiguous so that one
	// Softmax per block and stage fills them.
	probs := make([]float64, stages*x.Rows*m.Classes)
	for lo := 0; lo < x.Rows; lo += predictBlock {
		hi := min(lo+predictBlock, x.Rows)
		block := tensor.FromSlice(hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols])
		// The logits are layer scratch: consumed here, before the next
		// block's pass overwrites them.
		for s, logits := range m.ForwardAll(block, false) {
			p := tensor.FromSlice(hi-lo, m.Classes, probs[(s*x.Rows+lo)*m.Classes:(s*x.Rows+hi)*m.Classes])
			tensor.Softmax(p, logits)
			for i := lo; i < hi; i++ {
				row := p.Row(i - lo)
				pred, conf := tensor.ArgMax(row)
				flat[i*stages+s] = StageOutput{Stage: s, Pred: pred, Conf: conf, Probs: row[:len(row):len(row)]}
			}
		}
	}
	for i := range out {
		out[i] = flat[i*stages : (i+1)*stages : (i+1)*stages]
	}
	return out
}
