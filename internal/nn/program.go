package nn

import (
	"fmt"

	"eugene/internal/tensor"
)

// The inference engine. A layer tree is what training builds and
// differentiates; serving never runs it. Compile flattens a trained
// tree, once, into a Program — a flat op list over the weights at
// element type T — and every decision about what inference does is
// taken there and nowhere else: a ReLU is fused into the Dense or
// Residual op before it, inference-identity Dropout disappears, nested
// Sequentials are inlined. A dense op, fused or not, is then one call —
// tensor.Dense computes x·Wᵀ + b and the ReLU in a single pass over the
// output. A program never writes its weights, so clones for concurrent
// workers share them; only scratch is per clone.
//
// The float64 program aliases the tree's own weight buffers (no copy: a
// published model is immutable, and a model still being trained sees
// its optimizer steps served). The float32 program repacks them, halving
// weight traffic and doubling SIMD lanes.

// op kinds.
const (
	opDense    = iota // x·Wᵀ + b, optionally fused ReLU
	opResidual        // x + body(x), optionally fused ReLU
	opReLU            // standalone max(0, x) (no fusable predecessor)
)

// op is one step of a compiled program. Weight buffers (w, b) are shared
// across clones and never written by the program; out is per-clone
// scratch.
type op[T tensor.Float] struct {
	kind int
	w    *tensor.Mat[T] // dense: Out×In weights
	b    []T            // dense: bias
	body []op[T]        // residual: compiled body
	relu bool           // fuse ReLU after this op's output
	out  *tensor.Mat[T] // scratch, lazily sized per batch
}

// Program is a layer tree compiled for inference at element type T: a
// sequence of dense/residual/ReLU ops. A Program owns scratch buffers
// and must be driven from a single goroutine; Clone (cheap — weights are
// shared) gives each worker its own.
type Program[T tensor.Float] struct {
	In  int
	Out int
	ops []op[T]
}

// Compile flattens a trained layer tree into a program at T. in is the
// tree's input width; the returned program's Out is its verified output
// width. Two inputs are rejected: layer types with no op (Conv2D), and
// Monte-Carlo dropout, which samples masks per forward pass — both run
// on the tree (Forward, staged.Model.Predict/ExecStage).
func Compile[T tensor.Float](root Layer, in int) (*Program[T], error) {
	if in < 1 {
		return nil, fmt.Errorf("nn: Compile input width %d must be positive", in)
	}
	ops, out, err := compile[T](root, in, nil)
	if err != nil {
		return nil, err
	}
	return &Program[T]{In: in, Out: out, ops: ops}, nil
}

// compile appends root's ops to ops, returning the extended program and
// its output width.
func compile[T tensor.Float](root Layer, in int, ops []op[T]) ([]op[T], int, error) {
	switch l := root.(type) {
	case *Dense:
		if l.In != in {
			return nil, 0, fmt.Errorf("nn: Compile dense expects width %d, got %d", l.In, in)
		}
		if l.W == nil || l.W.Rows != l.Out || l.W.Cols != l.In || len(l.B) != l.Out {
			return nil, 0, fmt.Errorf("nn: Compile dense %d→%d has inconsistent buffers", l.In, l.Out)
		}
		w, b := weightsAt[T](l)
		return append(ops, op[T]{kind: opDense, w: w, b: b}), l.Out, nil
	case *ReLU:
		// Fuse into the immediately preceding dense or residual op;
		// a ReLU with no fusable predecessor (first layer, or after
		// another ReLU) becomes a standalone op.
		if n := len(ops); n > 0 && !ops[n-1].relu &&
			(ops[n-1].kind == opDense || ops[n-1].kind == opResidual) {
			ops[n-1].relu = true
			return ops, in, nil
		}
		return append(ops, op[T]{kind: opReLU}), in, nil
	case *Dropout:
		if l.MC {
			return nil, 0, fmt.Errorf("nn: Compile does not support Monte-Carlo dropout (it runs on the layer tree only)")
		}
		// Plain dropout is the identity at inference.
		return ops, in, nil
	case *Residual:
		body, out, err := compile[T](l.Body, in, nil)
		if err != nil {
			return nil, 0, err
		}
		if out != in {
			return nil, 0, fmt.Errorf("nn: Compile residual body maps %d→%d, needs matching widths", in, out)
		}
		return append(ops, op[T]{kind: opResidual, body: body}), in, nil
	case *Sequential:
		var err error
		w := in
		for i, c := range l.Layers {
			if ops, w, err = compile(c, w, ops); err != nil {
				return nil, 0, fmt.Errorf("nn: sequential layer %d: %w", i, err)
			}
		}
		return ops, w, nil
	default:
		return nil, 0, fmt.Errorf("nn: Compile does not support layer type %T", root)
	}
}

// weightsAt returns l's parameters at T: the layer's own buffers when T
// is their type (float64), a packed converted copy otherwise.
func weightsAt[T tensor.Float](l *Dense) (*tensor.Mat[T], []T) {
	if w, ok := any(l.W).(*tensor.Mat[T]); ok {
		return w, any(l.B).([]T)
	}
	w, b := tensor.New[T](l.Out, l.In), make([]T, l.Out)
	tensor.Convert(w.Data, l.W.Data)
	tensor.Convert(b, l.B)
	return w, b
}

// Forward runs the program on batch x (one sample per row) and returns
// the output batch. The result aliases program scratch, valid until the
// next Forward; x is only read.
func (p *Program[T]) Forward(x *tensor.Mat[T]) *tensor.Mat[T] {
	if x.Cols != p.In {
		panic(fmt.Sprintf("nn: Program(%d→%d) got input width %d", p.In, p.Out, x.Cols))
	}
	return runOps(p.ops, x)
}

// runOps executes a compiled op sequence. Every op writes only its own
// scratch (a residual: its body's), so a residual's saved input (the
// running x) stays intact while its body executes — no defensive copy
// needed.
func runOps[T tensor.Float](ops []op[T], x *tensor.Mat[T]) *tensor.Mat[T] {
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opDense:
			op.out = tensor.Ensure(op.out, x.Rows, op.w.Rows)
			tensor.Dense(op.out, x, op.w, op.b, op.relu)
		case opResidual:
			// The sum goes where the body left its result: that is the
			// body's last op's scratch, which nothing reads again, so a
			// block holds two batch-sized buffers, not three. Only a
			// body with no ops hands back x itself, which is not ours.
			h := runOps(op.body, x)
			if len(op.body) == 0 {
				op.out = tensor.Ensure(op.out, x.Rows, x.Cols)
			} else {
				op.out = h
			}
			if op.relu {
				tensor.AddReLU(op.out, x, h)
			} else {
				tensor.Add(op.out, x, h)
			}
		case opReLU:
			op.out = tensor.Ensure(op.out, x.Rows, x.Cols)
			tensor.ReLU(op.out, x)
		}
		x = op.out
	}
	return x
}

// Weights returns the weight matrices Forward reads, in op order: the
// buffers themselves, which every Clone shares (and, at float64, the
// compiled tree). Read-only.
func (p *Program[T]) Weights() []*tensor.Mat[T] { return appendWeights(nil, p.ops) }

func appendWeights[T tensor.Float](ws []*tensor.Mat[T], ops []op[T]) []*tensor.Mat[T] {
	for i := range ops {
		if ops[i].w != nil {
			ws = append(ws, ops[i].w)
		}
		ws = appendWeights(ws, ops[i].body)
	}
	return ws
}

// Clone returns a program sharing the weights with fresh scratch, for
// use by another goroutine.
func (p *Program[T]) Clone() *Program[T] {
	return &Program[T]{In: p.In, Out: p.Out, ops: cloneOps(p.ops)}
}

func cloneOps[T tensor.Float](ops []op[T]) []op[T] {
	out := make([]op[T], len(ops))
	for i, o := range ops {
		out[i] = op[T]{kind: o.kind, w: o.w, b: o.b, relu: o.relu}
		if o.body != nil {
			out[i].body = cloneOps(o.body)
		}
	}
	return out
}
