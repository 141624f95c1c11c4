// Package nn is a from-scratch neural-network engine in two halves.
// The training engine is the layer tree: layers with explicit
// forward/backward passes, losses (including the entropy-regularized
// calibration loss of Eugene Eq. 4), and an SGD optimizer, all float64.
// The inference engine is Program (program.go): a trained tree compiled
// once into a flat op list at float64 or float32, which is what
// internal/staged serves the multi-exit residual networks from. The
// tree's own inference-mode Forward stays as the unfused reference the
// program is tested against, and as the only path for what Compile
// rejects (Monte-Carlo dropout).
//
// Batches are dense matrices (internal/tensor) with one sample per row.
// All randomness is injected through *rand.Rand so training is fully
// deterministic given a seed.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"eugene/internal/tensor"
)

// Layer is a differentiable module. Forward consumes a batch (one sample
// per row) and returns the transformed batch; Backward consumes the
// gradient with respect to the layer's output and returns the gradient
// with respect to its input, accumulating parameter gradients internally.
//
// Layers own scratch buffers and are therefore not safe for concurrent
// use. Concurrent inference does not clone trees: it compiles one
// Program and clones that, which shares the weights. Clone is for work
// that needs its own parameters (calibration fine-tuning a copy of a
// published model).
type Layer interface {
	// Forward computes the layer output for batch x. When train is
	// true, stochastic layers (Dropout) sample masks and layers cache
	// whatever Backward needs.
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward maps the loss gradient w.r.t. this layer's output to the
	// gradient w.r.t. its input. Must be called after a Forward with
	// train=true.
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	// Params returns views of the parameter and gradient buffers, in
	// matching order, for the optimizer. Stateless layers return nil.
	Params() []Param
	// Clone returns a structurally identical layer sharing no mutable
	// state; parameters are deep-copied.
	Clone() Layer
}

// Param pairs a parameter buffer with its gradient accumulator.
type Param struct {
	Name  string
	Value []float64
	Grad  []float64
	// Out is, for a dense layer's in×out weights, the layer's output
	// count; 0 for every other parameter. Training's sums run over a
	// dense layer's weights in the out×in order a snapshot stores them,
	// whatever their layout in memory, so GradNorm reads such a gradient
	// output by output.
	Out int
}

// Dense is a fully connected layer: y = x·W + b, with W of shape in×out
// — row i holds input i's weight to every output, the layout
// tensor.Dense's outer product streams — while a snapshot keeps the
// weights out×in on disk, as it always has (internal/snapshot transposes
// on the way in and out). GradW, the same shape as W, and GradB are nil
// until Backward or Params first needs them: a layer that is only ever
// served — every layer of a model installed from a snapshot, on every
// replica — never pays for gradient buffers the size of its weights.
type Dense struct {
	In, Out int
	W       *tensor.Matrix // In×Out
	B       []float64
	GradW   *tensor.Matrix
	GradB   []float64

	x   *tensor.Matrix // cached input
	out *tensor.Matrix
	gin *tensor.Matrix
	// Backward scratch for the input gradient: gradOutᵀ and ginᵀ.
	gT, ginT *tensor.Matrix
	gb       []float64 // Backward scratch: per-call bias gradient
	// lane, when set (UseLane), runs the weight gradient's product off
	// the backward chain.
	lane *tensor.Lane
}

// NewDense constructs a dense layer with He-initialized weights, drawn
// output by output (each output's in weights in turn) and stored
// transposed.
func NewDense(rng *rand.Rand, in, out int) *Dense {
	drawn := tensor.NewMatrix(out, in)
	std := math.Sqrt(2.0 / float64(in))
	for i := range drawn.Data {
		drawn.Data[i] = rng.NormFloat64() * std
	}
	d := &Dense{In: in, Out: out, W: tensor.NewMatrix(in, out), B: make([]float64, out)}
	tensor.Transpose(d.W, drawn)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense(%d→%d) got input width %d", d.In, d.Out, x.Cols))
	}
	if train {
		d.x = x
	}
	d.out = ensure(d.out, x.Rows, d.Out)
	tensor.Dense(d.out, x, d.W, d.B, nil, false)
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward(train=true)")
	}
	d.ensureGrads()
	// dW += xᵀ · gradOut, in place; queued on the lane when there is one,
	// and nothing further down the chain reads GradW.
	d.lane.TMatMul(d.GradW, d.x, gradOut)
	if len(d.gb) != d.Out {
		d.gb = make([]float64, d.Out)
	}
	tensor.ColSums(d.gb, gradOut)
	for i := range d.GradB {
		d.GradB[i] += d.gb[i]
	}
	// gin = gradOut · Wᵀ, each element summed from zero in ascending
	// output order with one multiply and one add a term (MatMul), as
	// (W · gradOutᵀ)ᵀ: the product kernel reads W's rows where they lie
	// and runs the batch's rows as its columns, and only the two
	// batch-sized operands are transposed.
	d.gT = ensure(d.gT, d.Out, gradOut.Rows)
	tensor.Transpose(d.gT, gradOut)
	d.ginT = ensure(d.ginT, d.In, gradOut.Rows)
	tensor.MatMul(d.ginT, d.W, d.gT)
	d.gin = ensure(d.gin, gradOut.Rows, d.In)
	tensor.Transpose(d.gin, d.ginT)
	return d.gin
}

// UseLane makes every Dense layer under root queue its weight gradient
// on lane in Backward, so that the product runs beside the rest of the
// backward chain; nil restores the synchronous call. The queued product
// reads the layer's cached input and the gradient Backward was given,
// buffers that in a layer tree only the next Forward or Backward
// rewrites. So the rule is: open the lane before Backward, and wait for
// it before reading any gradient and before the next Forward; then the
// gradients have the synchronous call's bits.
func UseLane(root Layer, lane *tensor.Lane) {
	switch l := root.(type) {
	case *Dense:
		l.lane = lane
	case *Residual:
		UseLane(l.Body, lane)
	case *Sequential:
		for _, c := range l.Layers {
			UseLane(c, lane)
		}
	}
}

// ensureGrads allocates the gradient accumulators on first use. It
// writes the layer, so like Forward and Backward it is for the goroutine
// that owns the tree; readers of a shared tree count parameters with
// ParamCount.
func (d *Dense) ensureGrads() {
	if d.GradW == nil {
		d.GradW = tensor.NewMatrix(d.In, d.Out)
		d.GradB = make([]float64, d.Out)
	}
}

// Params implements Layer.
func (d *Dense) Params() []Param {
	d.ensureGrads()
	return []Param{
		{Name: "W", Value: d.W.Data, Grad: d.GradW.Data, Out: d.Out},
		{Name: "b", Value: d.B, Grad: d.GradB},
	}
}

// Clone implements Layer.
func (d *Dense) Clone() Layer {
	return &Dense{
		In:  d.In,
		Out: d.Out,
		W:   d.W.Clone(),
		B:   append([]float64(nil), d.B...),
	}
}

// ReLU applies max(0, x) element-wise.
type ReLU struct {
	mask []bool
	out  *tensor.Matrix
	gin  *tensor.Matrix
}

// NewReLU constructs a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer. Both loops are branch-free in the data: a
// pre-activation's sign is as good as random from one element to the
// next, and a branch on it mispredicts about every other time.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	r.out = ensure(r.out, x.Rows, x.Cols)
	tensor.ReLU(r.out, x)
	if train {
		if cap(r.mask) < len(x.Data) {
			r.mask = make([]bool, len(x.Data))
		}
		r.mask = r.mask[:len(x.Data)]
		for i, v := range x.Data {
			r.mask[i] = v > 0
		}
	}
	return r.out
}

// Backward implements Layer. It selects the upstream gradient or +0 by
// a bit mask, branch-free like Forward: a masked element is +0 (never
// g·0, which is −0 for a negative g), so the gradient has the bits of
// the branch it replaces.
func (r *ReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	r.gin = ensure(r.gin, gradOut.Rows, gradOut.Cols)
	gin, mask := r.gin.Data[:len(gradOut.Data)], r.mask[:len(gradOut.Data)]
	for i, g := range gradOut.Data {
		var keep uint64
		if mask[i] {
			keep = ^uint64(0)
		}
		gin[i] = math.Float64frombits(math.Float64bits(g) & keep)
	}
	return r.gin
}

// Params implements Layer.
func (r *ReLU) Params() []Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// Dropout zeroes activations with probability Rate during training and
// rescales survivors by 1/(1-Rate) (inverted dropout). At inference it is
// the identity unless MC is set, in which case it keeps sampling masks —
// the mechanism behind the RDeepSense MC-dropout confidence baseline.
type Dropout struct {
	Rate float64
	// MC enables Monte-Carlo dropout: masks are sampled even when
	// Forward is called with train=false.
	MC bool

	rng  *rand.Rand
	keep []float64
	out  *tensor.Matrix
	gin  *tensor.Matrix
}

// NewDropout constructs a dropout layer with the given drop rate.
func NewDropout(rng *rand.Rand, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v outside [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// Forward implements Layer. At plain inference dropout is the identity
// and returns x itself — no copy; downstream layers only read their
// inputs, so aliasing the previous layer's buffer is safe.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train && !d.MC {
		return x
	}
	d.out = ensure(d.out, x.Rows, x.Cols)
	if cap(d.keep) < len(x.Data) {
		d.keep = make([]float64, len(x.Data))
	}
	d.keep = d.keep[:len(x.Data)]
	scale := 1 / (1 - d.Rate)
	for i, v := range x.Data {
		if d.rng.Float64() < d.Rate {
			d.keep[i] = 0
			d.out.Data[i] = 0
		} else {
			d.keep[i] = scale
			d.out.Data[i] = v * scale
		}
	}
	return d.out
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	d.gin = ensure(d.gin, gradOut.Rows, gradOut.Cols)
	for i, g := range gradOut.Data {
		d.gin.Data[i] = g * d.keep[i]
	}
	return d.gin
}

// Params implements Layer.
func (d *Dropout) Params() []Param { return nil }

// cloneMu guards rng draws during Clone: cloning seeds the child from
// the parent rng, a published model may be cloned from several
// goroutines at once (serving pool start-up racing a recalibration), and
// the *rand.Rand may be shared by every stochastic layer of one model —
// so the guard must be global, not per layer. Forward/Backward stay
// unguarded; they are owner-goroutine-only by design.
var cloneMu sync.Mutex

// Clone implements Layer.
func (d *Dropout) Clone() Layer {
	cloneMu.Lock()
	seed := d.rng.Int63()
	cloneMu.Unlock()
	return &Dropout{Rate: d.Rate, MC: d.MC, rng: rand.New(rand.NewSource(seed))}
}

// Reseed resets the dropout RNG; used to make Monte-Carlo evaluation
// deterministic.
func (d *Dropout) Reseed(seed int64) {
	cloneMu.Lock()
	d.rng = rand.New(rand.NewSource(seed))
	cloneMu.Unlock()
}

// ensure is the package-local shorthand for tensor.Ensure.
func ensure(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	return tensor.Ensure(m, rows, cols)
}
