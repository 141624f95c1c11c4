package nn

import (
	"math"

	"eugene/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and L2
// weight decay. The zero value is unusable; construct with NewSGD.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*float64][]float64
	// vel is step's scratch: the velocity of each non-empty parameter, in
	// order.
	vel [][]float64
}

// NewSGD constructs an optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{
		LR:          lr,
		Momentum:    momentum,
		WeightDecay: weightDecay,
		velocity:    make(map[*float64][]float64),
	}
}

// Step applies one update to every parameter and zeroes the gradients.
func (o *SGD) Step(params []Param) { o.step(params, 1, false) }

// ClipStep is Step with the gradients scaled down first, when their
// global L2 norm exceeds maxNorm, to a norm of maxNorm; it returns the
// norm before scaling. The scaling happens inside the update's one pass
// and rounds each scaled gradient to float64 before using it, so the
// parameters move exactly as if the gradients had been scaled in place
// and then stepped.
func (o *SGD) ClipStep(params []Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm <= maxNorm || norm == 0 {
		o.step(params, 1, false)
	} else {
		o.step(params, maxNorm/norm, true)
	}
	return norm
}

// stepChunk is the most parameters one task of the update covers: small
// enough that the 0.8 M parameters of the served model split into dozens
// of tasks for tensor.Each to balance over the cores, large enough that
// claiming one costs nothing beside its memory traffic.
const stepChunk = 1 << 14

// step updates every parameter, its gradient first multiplied by scale
// when clip is set. Each element's update reads and writes only that
// element, so the pass runs through tensor.Each in contiguous chunks of
// the parameters laid end to end, with the bits of a serial pass.
func (o *SGD) step(params []Param, scale float64, clip bool) {
	vel := o.vel[:0]
	total := 0
	for _, p := range params {
		if len(p.Value) == 0 {
			continue
		}
		key := &p.Value[0]
		v, ok := o.velocity[key]
		if !ok {
			v = make([]float64, len(p.Value))
			o.velocity[key] = v
		}
		vel = append(vel, v)
		total += len(p.Value)
	}
	o.vel = vel
	lr, mom, wd := o.LR, o.Momentum, o.WeightDecay
	tensor.Each((total+stepChunk-1)/stepChunk, func(c int) {
		lo, hi := c*stepChunk, min((c+1)*stepChunk, total)
		off, k := 0, 0
		for _, p := range params {
			n := len(p.Value)
			if n == 0 {
				continue
			}
			if a, b := max(lo-off, 0), min(hi-off, n); a < b {
				value, grad, v := p.Value[a:b], p.Grad[a:b], vel[k][a:b]
				for i := range value {
					g := grad[i]
					if clip {
						g = float64(g * scale) // a rounding of its own, never fused
					}
					g += wd * value[i]
					v[i] = mom*v[i] - lr*g
					value[i] += v[i]
					grad[i] = 0
				}
			}
			if off += n; off >= hi {
				return
			}
			k++
		}
	})
}

// ZeroGrads clears gradient accumulators without stepping; useful when a
// batch is abandoned.
func ZeroGrads(params []Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// GradNorm returns the global L2 norm of all gradients, summed in
// parameter order, a dense layer's weight gradient output by output
// (Param.Out; tensor.SumSquaresByColumn walks it) so that the sum does
// not depend on how the weights are laid out in memory: the figure
// ClipStep decides by.
func GradNorm(params []Param) float64 {
	var sum float64
	for _, p := range params {
		if p.Out == 0 {
			for _, g := range p.Grad {
				sum += g * g
			}
			continue
		}
		sum = tensor.SumSquaresByColumn(sum, tensor.FromSlice(len(p.Grad)/p.Out, p.Out, p.Grad))
	}
	return math.Sqrt(sum)
}

// Adam is the Adam optimizer (Kingma & Ba): adaptive per-parameter
// learning rates with bias-corrected first and second moment estimates.
// Provided as an alternative to SGD for workloads whose gradients are
// poorly scaled (e.g. the sensor-fusion example's mixed modalities).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	step int
	m    map[*float64][]float64
	v    map[*float64][]float64
}

// NewAdam constructs an Adam optimizer with the usual defaults for the
// moment decay rates.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     make(map[*float64][]float64),
		v:     make(map[*float64][]float64),
	}
}

// Step applies one update to every parameter and zeroes the gradients.
func (o *Adam) Step(params []Param) {
	o.step++
	c1 := 1 - math.Pow(o.Beta1, float64(o.step))
	c2 := 1 - math.Pow(o.Beta2, float64(o.step))
	for _, p := range params {
		if len(p.Value) == 0 {
			continue
		}
		key := &p.Value[0]
		m, ok := o.m[key]
		if !ok {
			m = make([]float64, len(p.Value))
			o.m[key] = m
			o.v[key] = make([]float64, len(p.Value))
		}
		v := o.v[key]
		for i := range p.Value {
			g := p.Grad[i]
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mh := m[i] / c1
			vh := v[i] / c2
			p.Value[i] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
			p.Grad[i] = 0
		}
	}
}
