package nn

import (
	"math"
	"math/rand"
	"testing"

	"eugene/internal/tensor"
)

// lossOf runs a forward pass and returns the CE loss; used by the
// numerical gradient checks.
func lossOf(model Layer, x *tensor.Matrix, labels []int, alpha float64) float64 {
	out := model.Forward(x, false)
	grad := tensor.NewMatrix(out.Rows, out.Cols)
	return SoftmaxCE(grad, out, labels, alpha)
}

// gradCheck compares analytic parameter gradients against central
// differences for the model on one batch.
func gradCheck(t *testing.T, model Layer, x *tensor.Matrix, labels []int, alpha, tol float64) {
	t.Helper()
	ZeroGrads(model.Params())
	out := model.Forward(x, true)
	grad := tensor.NewMatrix(out.Rows, out.Cols)
	SoftmaxCE(grad, out, labels, alpha)
	model.Backward(grad)

	const eps = 1e-5
	for _, p := range model.Params() {
		for i := 0; i < len(p.Value); i += 7 { // sample every 7th param
			orig := p.Value[i]
			p.Value[i] = orig + eps
			lp := lossOf(model, x, labels, alpha)
			p.Value[i] = orig - eps
			lm := lossOf(model, x, labels, alpha)
			p.Value[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := p.Grad[i]
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := NewSequential(NewDense(rng, 5, 8), NewReLU(), NewDense(rng, 8, 3))
	x := tensor.NewMatrix(4, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gradCheck(t, model, x, []int{0, 1, 2, 1}, 0, 1e-4)
}

func TestEntropyRegGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := NewSequential(NewDense(rng, 4, 6), NewReLU(), NewDense(rng, 6, 3))
	x := tensor.NewMatrix(3, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for _, alpha := range []float64{0.5, -0.3} {
		gradCheck(t, model, x, []int{2, 0, 1}, alpha, 1e-4)
	}
}

func TestResidualGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	body := NewSequential(NewDense(rng, 6, 6), NewReLU(), NewDense(rng, 6, 6))
	model := NewSequential(NewResidual(body), NewDense(rng, 6, 3))
	x := tensor.NewMatrix(4, 6)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	gradCheck(t, model, x, []int{0, 2, 1, 1}, 0, 1e-4)
}

// TestInputGradCheck verifies Backward's returned input gradient, which
// residual connections and multi-stage backprop rely on.
func TestInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := NewSequential(NewDense(rng, 4, 5), NewReLU(), NewDense(rng, 5, 3))
	x := tensor.NewMatrix(2, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := []int{1, 2}
	out := model.Forward(x, true)
	grad := tensor.NewMatrix(out.Rows, out.Cols)
	SoftmaxCE(grad, out, labels, 0)
	gin := model.Backward(grad)

	const eps = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(model, x, labels, 0)
		x.Data[i] = orig - eps
		lm := lossOf(model, x, labels, 0)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-gin.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, gin.Data[i], num)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice(1, 4, []float64{-1, 0, 2, -3})
	out := r.Forward(x, true)
	want := []float64{0, 0, 2, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("ReLU forward = %v", out.Data)
		}
	}
	g := tensor.FromSlice(1, 4, []float64{1, 1, 1, 1})
	gin := r.Backward(g)
	wantG := []float64{0, 0, 1, 0}
	for i, w := range wantG {
		if gin.Data[i] != w {
			t.Fatalf("ReLU backward = %v", gin.Data)
		}
	}
}

func TestDropoutModes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := NewDropout(rng, 0.5)
	x := tensor.NewMatrix(10, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	// Eval without MC: identity.
	out := d.Forward(x, false)
	for i, v := range out.Data {
		if v != 1 {
			t.Fatalf("eval dropout not identity at %d: %v", i, v)
		}
	}
	// Train: roughly half dropped, survivors scaled by 2.
	out = d.Forward(x, true)
	var zeros, twos int
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropped %d of 1000, want ≈500", zeros)
	}
	// MC mode: stochastic even at eval time.
	d.MC = true
	out = d.Forward(x, false)
	zeros = 0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("MC dropout produced no zeros at eval time")
	}
}

func TestDropoutInvalidRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate 1.0")
		}
	}()
	NewDropout(rand.New(rand.NewSource(1)), 1.0)
}

func TestSGDConvergesOnBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Two Gaussian blobs in 2-D; a linear classifier must reach >95%.
	const n = 200
	x := tensor.NewMatrix(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		x.Set(i, 0, rng.NormFloat64()*0.5+float64(c*4-2))
		x.Set(i, 1, rng.NormFloat64()*0.5)
	}
	model := NewSequential(NewDense(rng, 2, 2))
	opt := NewSGD(0.1, 0.9, 0)
	grad := tensor.NewMatrix(n, 2)
	for epoch := 0; epoch < 50; epoch++ {
		out := model.Forward(x, true)
		SoftmaxCE(grad, out, labels, 0)
		model.Backward(grad)
		opt.Step(model.Params())
	}
	out := model.Forward(x, false)
	if acc := Accuracy(out, labels); acc < 0.95 {
		t.Fatalf("accuracy after training = %v, want ≥0.95", acc)
	}
}

func TestSGDMomentumState(t *testing.T) {
	opt := NewSGD(0.1, 0.9, 0)
	p := []Param{{Name: "w", Value: []float64{0}, Grad: []float64{1}}}
	opt.Step(p)
	first := p[0].Value[0]
	if first != -0.1 {
		t.Fatalf("first step = %v, want -0.1", first)
	}
	p[0].Grad[0] = 1
	opt.Step(p)
	// velocity = 0.9*(-0.1) - 0.1 = -0.19
	if got := p[0].Value[0] - first; math.Abs(got+0.19) > 1e-12 {
		t.Fatalf("second step delta = %v, want -0.19", got)
	}
	if p[0].Grad[0] != 0 {
		t.Fatal("Step must zero gradients")
	}
}

// TestClipGrads: ClipStep reports the norm before clipping, moves the
// parameters by the clipped gradient, and does so with the bits of the
// two passes it replaced — the gradients scaled in place, then Step —
// over parameters that span several of the step's chunks, clipped and
// not, at every parallelism.
func TestClipGrads(t *testing.T) {
	p := []Param{{Name: "w", Value: []float64{0, 0}, Grad: []float64{3, 4}}}
	if pre := NewSGD(1, 0, 0).ClipStep(p, 1); math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	if math.Abs(p[0].Value[0]+0.6) > 1e-12 || math.Abs(p[0].Value[1]+0.8) > 1e-12 || p[0].Grad[0] != 0 || p[0].Grad[1] != 0 {
		t.Fatalf("after a clipped step: value %v, grad %v; want [-0.6 -0.8], zeros", p[0].Value, p[0].Grad)
	}

	defer tensor.SetParallelism(tensor.Parallelism())
	rng := rand.New(rand.NewSource(9))
	params := func() []Param {
		var ps []Param
		for _, n := range []int{3 * stepChunk / 2, 0, 7, stepChunk, 1} {
			p := Param{Value: make([]float64, n), Grad: make([]float64, n)}
			for i := range p.Value {
				p.Value[i], p.Grad[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			ps = append(ps, p)
		}
		return ps
	}
	for _, par := range []int{1, 2, 4} {
		tensor.SetParallelism(par)
		for _, maxNorm := range []float64{10, 1e9} { // clipped, and not
			got, want := params(), []Param(nil)
			for _, p := range got {
				want = append(want, Param{Value: append([]float64(nil), p.Value...), Grad: append([]float64(nil), p.Grad...)})
			}
			a, b := NewSGD(0.05, 0.9, 1e-4), NewSGD(0.05, 0.9, 1e-4)
			for step := 0; step < 2; step++ {
				a.ClipStep(got, maxNorm)
				if norm := GradNorm(want); norm > maxNorm {
					for _, p := range want {
						for i := range p.Grad {
							p.Grad[i] *= maxNorm / norm
						}
					}
				}
				b.Step(want)
				for k := range got {
					for i := range got[k].Grad {
						got[k].Grad[i], want[k].Grad[i] = 1, 1
					}
				}
			}
			for k := range got {
				for i, v := range got[k].Value {
					if math.Float64bits(v) != math.Float64bits(want[k].Value[i]) {
						t.Fatalf("parallelism %d, max norm %v: param %d[%d] = %v, the two passes give %v", par, maxNorm, k, i, v, want[k].Value[i])
					}
				}
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	model := NewSequential(NewDense(rng, 3, 3), NewReLU(), NewDense(rng, 3, 2))
	clone := model.Clone()
	mp := model.Params()
	cp := clone.Params()
	if len(mp) != len(cp) {
		t.Fatalf("clone has %d params, want %d", len(cp), len(mp))
	}
	orig := mp[0].Value[0]
	mp[0].Value[0] = orig + 100
	if cp[0].Value[0] == mp[0].Value[0] {
		t.Fatal("clone shares parameter storage with original")
	}
	// Clone must produce identical outputs once the mutation is undone.
	mp[0].Value[0] = orig
	x := tensor.NewMatrix(2, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	a := model.Forward(x, false)
	b := clone.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("clone output differs at %d", i)
		}
	}
}

func TestSetMCDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	drop := NewDropout(rng, 0.3)
	model := NewSequential(
		NewDense(rng, 2, 2),
		NewResidual(NewSequential(drop)),
	)
	SetMCDropout(model, true)
	if !drop.MC {
		t.Fatal("SetMCDropout did not reach nested dropout")
	}
	SetMCDropout(model, false)
	if drop.MC {
		t.Fatal("SetMCDropout(false) did not clear flag")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(2, 3, []float64{
		1, 5, 2,
		9, 0, 0,
	})
	if got := Accuracy(logits, []int{1, 0}); got != 1 {
		t.Fatalf("Accuracy = %v, want 1", got)
	}
	if got := Accuracy(logits, []int{0, 0}); got != 0.5 {
		t.Fatalf("Accuracy = %v, want 0.5", got)
	}
	if got := Accuracy(tensor.NewMatrix(0, 3), nil); got != 0 {
		t.Fatalf("empty Accuracy = %v, want 0", got)
	}
}

func TestAdamConvergesOnBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 200
	x := tensor.NewMatrix(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		// Poorly scaled features: Adam should still converge quickly.
		x.Set(i, 0, (rng.NormFloat64()*0.5+float64(c*4-2))*100)
		x.Set(i, 1, rng.NormFloat64()*0.01)
	}
	model := NewSequential(NewDense(rng, 2, 8), NewReLU(), NewDense(rng, 8, 2))
	opt := NewAdam(0.01)
	grad := tensor.NewMatrix(n, 2)
	for epoch := 0; epoch < 60; epoch++ {
		out := model.Forward(x, true)
		SoftmaxCE(grad, out, labels, 0)
		model.Backward(grad)
		opt.Step(model.Params())
	}
	out := model.Forward(x, false)
	if acc := Accuracy(out, labels); acc < 0.95 {
		t.Fatalf("Adam accuracy = %v, want ≥0.95", acc)
	}
}

func TestAdamZeroesGrads(t *testing.T) {
	opt := NewAdam(0.1)
	p := []Param{{Name: "w", Value: []float64{1}, Grad: []float64{0.5}}}
	opt.Step(p)
	if p[0].Grad[0] != 0 {
		t.Fatal("Adam.Step must zero gradients")
	}
	if p[0].Value[0] >= 1 {
		t.Fatal("Adam.Step must move against the gradient")
	}
}

// TestDenseBackwardScratchReuse checks that the persistent gw/gb scratch
// accumulates gradients identically across repeated Backward calls.
func TestDenseBackwardScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDense(rng, 4, 3)
	x := tensor.NewMatrix(2, 4)
	g := tensor.NewMatrix(2, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	d.Forward(x, true)
	d.Backward(g)
	once := append([]float64(nil), d.GradW.Data...)
	onceB := append([]float64(nil), d.GradB...)
	d.Forward(x, true)
	d.Backward(g)
	for i, v := range d.GradW.Data {
		if math.Abs(v-2*once[i]) > 1e-12 {
			t.Fatalf("GradW[%d] = %v after two passes, want %v", i, v, 2*once[i])
		}
	}
	for i, v := range d.GradB {
		if math.Abs(v-2*onceB[i]) > 1e-12 {
			t.Fatalf("GradB[%d] = %v after two passes, want %v", i, v, 2*onceB[i])
		}
	}
}

// TestDenseBackwardAllocs pins the backward pass's steady state: after
// the first call has sized the gradient buffers and the scratch, a
// Dense.Backward at the benchmark's training shape (a batch of 20 through
// 256 → 256) allocates nothing — both products run on their caller —
// with no lane, and with an open lane taking its weight gradient
// (on a helper, or inline where no core is free). Both give the same
// gradients.
func TestDenseBackwardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, g := tensor.NewMatrix(20, 256), tensor.NewMatrix(20, 256)
	for i := range x.Data {
		x.Data[i], g.Data[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	var grads [2][]float64
	for k := range grads {
		d := NewDense(rand.New(rand.NewSource(6)), 256, 256)
		var lane tensor.Lane
		if k == 1 {
			UseLane(d, &lane)
			lane.Open()
		}
		d.Forward(x, true)
		d.Backward(g)
		if n := testing.AllocsPerRun(20, func() { d.Backward(g) }); n != 0 {
			t.Errorf("Dense.Backward, lane %v: %v allocations per call after the first, want 0", k == 1, n)
		}
		lane.Wait()
		grads[k] = d.GradW.Data
	}
	for i, v := range grads[1] {
		if math.Float64bits(v) != math.Float64bits(grads[0][i]) {
			t.Fatalf("GradW[%d] = %v through the lane, %v without", i, v, grads[0][i])
		}
	}
}

// oldSoftmaxCEGrad is SoftmaxCE's α ≠ 0 gradient as it was before
// the one-log entropy (EntropyLogsRows): tensor.Entropy for H and a
// second math.Log per class.
func oldSoftmaxCEGrad(p []float64, y int, alpha float64) []float64 {
	h := tensor.Entropy(p)
	g := make([]float64, len(p))
	for c := range p {
		g[c] = p[c]
		if c == y {
			g[c] -= 1
		}
		lp := math.Log(math.Max(p[c], 1e-12))
		g[c] += alpha * (-p[c] * (lp + h))
	}
	return g
}

// TestEntropyLogsMatchesTwoLogs holds EntropyLogsRows, one row at a
// time, to the two formulas it replaces, bit for bit, on rows that are
// mild, saturated past 1e-12 and saturated to exact zeros, and on the
// subnormal, zero and NaN entries a probability vector can carry; and
// SoftmaxCE's gradient, which uses it, to the old gradient.
func TestEntropyLogsMatchesTwoLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := [][]float64{
		{1e-12, 5e-13, 0, math.Copysign(0, -1), 5e-324, 1e-300, 0.25, 1 - 0.25},
		{math.NaN(), 0.5, 0.5, 1e-13},
	}
	for _, scale := range []float64{1, 10, 40, 200, 800} {
		logits := tensor.NewMatrix(6, 7)
		for i := range logits.Data {
			logits.Data[i] = scale * rng.NormFloat64()
		}
		probs := tensor.NewMatrix(6, 7)
		tensor.Softmax(probs, logits)
		for r := 0; r < probs.Rows; r++ {
			rows = append(rows, probs.Row(r))
		}
		for _, alpha := range []float64{0.5, -0.3} {
			labels := []int{0, 1, 2, 3, 4, 5}
			grad := tensor.NewMatrix(6, 7)
			SoftmaxCE(grad, logits, labels, alpha)
			invB := 1 / float64(len(labels))
			for r, y := range labels {
				for c, w := range oldSoftmaxCEGrad(probs.Row(r), y, alpha) {
					if got, want := grad.At(r, c), w*invB; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("scale %v α %v: SoftmaxCE grad[%d][%d] = %v, the two-log formula gives %v", scale, alpha, r, c, got, want)
					}
				}
			}
		}
	}
	for _, p := range rows {
		hs, lp := make([]float64, 1), tensor.NewMatrix(1, len(p))
		EntropyLogsRows(hs, lp, tensor.FromSlice(1, len(p), p))
		if want := tensor.Entropy(p); math.Float64bits(hs[0]) != math.Float64bits(want) {
			t.Fatalf("EntropyLogsRows(%v) = %v, tensor.Entropy gives %v", p, hs[0], want)
		}
		for c, v := range p {
			if want := math.Log(math.Max(v, 1e-12)); math.Float64bits(lp.Data[c]) != math.Float64bits(want) {
				t.Fatalf("EntropyLogsRows(%v) log [%d] = %v, want %v", p, c, lp.Data[c], want)
			}
		}
	}
}

// TestEntropyLogsRowsMatchesTwoLogs is TestEntropyLogsMatchesTwoLogs on
// whole matrices of one to 67 rows and one to 17 classes
// (every lane tail of the log kernel, and calls that span lane blocks),
// from mild rows to rows saturated past 1e-12 and to exact zeros, with
// subnormal, zero and NaN entries mixed in, every row's entropy is
// tensor.Entropy's and every clamped log math.Log(max(p, 1e-12))'s, bit
// for bit.
func TestEntropyLogsRowsMatchesTwoLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{1e-12, 5e-13, 0, math.Copysign(0, -1), 5e-324, 1e-300, math.NaN()}
	for rows := 1; rows <= 67; rows += 3 {
		for cols := 1; cols <= 17; cols++ {
			logits := tensor.NewMatrix(rows, cols)
			for i := range logits.Data {
				logits.Data[i] = []float64{1, 10, 40, 200, 800}[i%5] * rng.NormFloat64()
			}
			p := tensor.NewMatrix(rows, cols)
			tensor.Softmax(p, logits)
			for i := range p.Data {
				if rng.Intn(9) == 0 {
					p.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			hs, lp := make([]float64, rows), tensor.NewMatrix(rows, cols)
			EntropyLogsRows(hs, lp, p)
			for r := 0; r < rows; r++ {
				if want := tensor.Entropy(p.Row(r)); math.Float64bits(hs[r]) != math.Float64bits(want) {
					t.Fatalf("%d×%d row %d: entropy %v, tensor.Entropy gives %v", rows, cols, r, hs[r], want)
				}
				for c, v := range p.Row(r) {
					if want := math.Log(math.Max(v, 1e-12)); math.Float64bits(lp.At(r, c)) != math.Float64bits(want) {
						t.Fatalf("%d×%d: log [%d][%d] = %v, want %v", rows, cols, r, c, lp.At(r, c), want)
					}
				}
			}
		}
	}
}
