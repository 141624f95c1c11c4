package nn

import (
	"fmt"

	"eugene/internal/tensor"
)

// Sequential chains layers; it itself implements Layer so residual blocks
// and staged models can nest it freely.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a sequential container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward implements Layer: every layer in turn, fused with nothing
// (fusion is the compiled Program's business).
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := x
	for _, l := range s.Layers {
		out = l.Forward(out, train)
	}
	return out
}

// Backward implements Layer.
func (s *Sequential) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	g := gradOut
	for i := len(s.Layers) - 1; i >= 0; i-- {
		g = s.Layers[i].Backward(g)
	}
	return g
}

// Params implements Layer.
func (s *Sequential) Params() []Param {
	var ps []Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Clone implements Layer.
func (s *Sequential) Clone() Layer {
	layers := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		layers[i] = l.Clone()
	}
	return &Sequential{Layers: layers}
}

// Residual wraps a body f and computes y = x + f(x); input and output
// widths of the body must match. This is the shortcut connection of the
// paper's Figure 3 ResNet stages.
type Residual struct {
	Body Layer

	out *tensor.Matrix
	gin *tensor.Matrix
}

// NewResidual wraps body in a shortcut connection.
func NewResidual(body Layer) *Residual { return &Residual{Body: body} }

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	fy := r.Body.Forward(x, train)
	r.out = ensure(r.out, x.Rows, x.Cols)
	tensor.Add(r.out, x, fy)
	return r.out
}

// Backward implements Layer.
func (r *Residual) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	gBody := r.Body.Backward(gradOut)
	r.gin = ensure(r.gin, gradOut.Rows, gradOut.Cols)
	tensor.Add(r.gin, gradOut, gBody)
	return r.gin
}

// Params implements Layer.
func (r *Residual) Params() []Param { return r.Body.Params() }

// Clone implements Layer.
func (r *Residual) Clone() Layer { return &Residual{Body: r.Body.Clone()} }

// OutputWidth folds a layer tree's input width to its output width,
// failing on any internal mismatch. Restored models (snapshots) are
// validated with it before serving: a width mismatch inside a decoded
// layer tree would otherwise panic a worker goroutine mid-forward.
func OutputWidth(root Layer, in int) (int, error) {
	if in < 1 {
		return 0, fmt.Errorf("nn: input width %d must be positive", in)
	}
	switch l := root.(type) {
	case *Dense:
		if l.In != in {
			return 0, fmt.Errorf("nn: dense expects width %d, got %d", l.In, in)
		}
		if l.Out < 1 || l.W == nil || l.W.Rows != l.In || l.W.Cols != l.Out || len(l.B) != l.Out {
			return 0, fmt.Errorf("nn: dense %d→%d has inconsistent buffers", l.In, l.Out)
		}
		return l.Out, nil
	case *ReLU, *Dropout:
		return in, nil
	case *Residual:
		out, err := OutputWidth(l.Body, in)
		if err != nil {
			return 0, err
		}
		if out != in {
			return 0, fmt.Errorf("nn: residual body maps %d→%d, needs matching widths", in, out)
		}
		return in, nil
	case *Sequential:
		w := in
		var err error
		for i, c := range l.Layers {
			if w, err = OutputWidth(c, w); err != nil {
				return 0, fmt.Errorf("nn: sequential layer %d: %w", i, err)
			}
		}
		return w, nil
	default:
		return 0, fmt.Errorf("nn: OutputWidth does not support layer type %T", root)
	}
}

// ParamCount returns the number of trainable scalars under root. It only
// reads the tree, so unlike Params — which hands out gradient buffers and
// allocates them on first use — it is safe on a model that is being
// served, and leaves it without gradients.
func ParamCount(root Layer) int {
	switch l := root.(type) {
	case *Dense:
		return len(l.W.Data) + len(l.B)
	case *Residual:
		return ParamCount(l.Body)
	case *Sequential:
		n := 0
		for _, c := range l.Layers {
			n += ParamCount(c)
		}
		return n
	}
	return 0
}

// SetMCDropout toggles Monte-Carlo dropout on every Dropout layer
// reachable from root. Used by the RDeepSense calibration baseline.
func SetMCDropout(root Layer, on bool) {
	switch l := root.(type) {
	case *Dropout:
		l.MC = on
	case *Sequential:
		for _, c := range l.Layers {
			SetMCDropout(c, on)
		}
	case *Residual:
		SetMCDropout(l.Body, on)
	}
}
