// Package profiler implements Eugene's execution-profiling service
// (paper Section II-C, after FastDeepIoT [9]): a synthetic mobile-device
// cost model that reproduces the nonlinear FLOPs→latency relationship of
// Table I, measurement generation, and a piecewise-linear regression
// profiler that learns a predictive latency model by recursively
// splitting the configuration space and fitting linear models per
// region. Convolutions appear here only as configurations (ConvShape)
// to time and learn from; the repository executes none — its multi-exit
// trunk (internal/staged) is dense.
package profiler

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// DeviceModel is the synthetic stand-in for the paper's Nexus 5: it maps
// a convolution configuration to execution time. The nonlinearity comes
// from output-channel parallelism — the device's vector units are fully
// utilized only at wide output channels — plus a per-output-channel
// scheduling overhead, which is exactly the mechanism FastDeepIoT
// identified for why equal-FLOPs layers differ (CNN1 vs CNN2) and why
// more FLOPs can run faster (CNN4 vs CNN3).
type DeviceModel struct {
	// BaseRate is the peak throughput in MFLOPs per millisecond.
	BaseRate float64
	// UtilExp shapes utilization growth with output channels:
	// util = (out/UtilSat)^UtilExp, capped at 1.
	UtilExp float64
	// UtilSat is the output-channel count at which utilization
	// saturates.
	UtilSat float64
	// LaunchMS is the fixed per-layer launch overhead (ms).
	LaunchMS float64
	// NoiseStd is multiplicative measurement noise (0 = exact).
	NoiseStd float64
}

// DefaultDevice is fit to Table I's four published measurements
// (see profiler tests: each reproduced within a few percent).
func DefaultDevice() DeviceModel {
	return DeviceModel{
		BaseRate: 3.325,
		UtilExp:  0.70,
		UtilSat:  64,
		LaunchMS: 2.0,
		NoiseStd: 0,
	}
}

// TimeMS returns the modeled execution time in milliseconds of one
// forward pass of shape s. With NoiseStd > 0, rng must be non-nil.
func (d DeviceModel) TimeMS(s ConvShape, rng *rand.Rand) float64 {
	util := math.Pow(float64(s.OutChannels)/d.UtilSat, d.UtilExp)
	if util > 1 {
		util = 1
	}
	mflops := s.FLOPs() / 1e6
	t := mflops/(d.BaseRate*util) + d.LaunchMS
	if d.NoiseStd > 0 {
		t *= 1 + rng.NormFloat64()*d.NoiseStd
	}
	if t < 0 {
		t = 0
	}
	return t
}

// TableIConfig is one row of the paper's Table I.
type TableIConfig struct {
	Name        string
	In, Out     int
	PaperTimeMS float64
}

// TableI returns the four configurations of the paper's Table I
// (3×3 kernel, stride 1, same padding, 224×224 input).
func TableI() []TableIConfig {
	return []TableIConfig{
		{Name: "CNN1", In: 8, Out: 32, PaperTimeMS: 114.9},
		{Name: "CNN2", In: 32, Out: 8, PaperTimeMS: 300.2},
		{Name: "CNN3", In: 66, Out: 32, PaperTimeMS: 908.3},
		{Name: "CNN4", In: 43, Out: 64, PaperTimeMS: 751.7},
	}
}

// ConvShape is a 2-D convolution layer's configuration: square kernels,
// stride Stride and padding Pad over InChannels input planes of
// Height×Width. It is what the device model times.
type ConvShape struct {
	InChannels  int
	OutChannels int
	Height      int
	Width       int
	Kernel      int
	Stride      int
	Pad         int
}

// OutHeight returns the output plane height.
func (s ConvShape) OutHeight() int { return (s.Height+2*s.Pad-s.Kernel)/s.Stride + 1 }

// OutWidth returns the output plane width.
func (s ConvShape) OutWidth() int { return (s.Width+2*s.Pad-s.Kernel)/s.Stride + 1 }

// FLOPs returns the multiply-accumulate count (counting each MAC as two
// floating-point operations) for one forward pass of this convolution.
func (s ConvShape) FLOPs() float64 {
	return 2 * float64(s.OutHeight()) * float64(s.OutWidth()) *
		float64(s.OutChannels) * float64(s.InChannels) * float64(s.Kernel*s.Kernel)
}

// ShapeFor builds the Table I conv shape for (in, out) channels.
func ShapeFor(in, out int) ConvShape {
	return ConvShape{
		InChannels:  in,
		OutChannels: out,
		Height:      224,
		Width:       224,
		Kernel:      3,
		Stride:      1,
		Pad:         1,
	}
}

// Measurement is one profiled sample: a configuration's features and its
// measured time.
type Measurement struct {
	In, Out int
	FLOPs   float64 // MFLOPs
	TimeMS  float64
}

// CollectMeasurements sweeps channel configurations on the device model,
// producing the training corpus for the learned profiler.
func CollectMeasurements(d DeviceModel, ins, outs []int, seed int64) []Measurement {
	rng := rand.New(rand.NewSource(seed))
	var ms []Measurement
	for _, in := range ins {
		for _, out := range outs {
			s := ShapeFor(in, out)
			ms = append(ms, Measurement{
				In:     in,
				Out:    out,
				FLOPs:  s.FLOPs() / 1e6,
				TimeMS: d.TimeMS(s, rng),
			})
		}
	}
	return ms
}

// node is one region of the piecewise-linear regression tree: either a
// split on a feature or a leaf holding a linear model over the features
// (FLOPs, out channels, intercept).
type node struct {
	// leaf fields
	coef []float64 // [flops, out, 1]
	// split fields
	feature   int // 0 = FLOPs, 1 = out channels
	threshold float64
	left      *node
	right     *node
}

// Profiler is the learned piecewise-linear execution-time model
// (FastDeepIoT-style): regions are discovered by recursive splitting
// where a single linear model fits poorly, mirroring the paper's
// "breaks execution models into piece-wise linear regions".
type Profiler struct {
	root     *node
	minLeaf  int
	maxDepth int
}

// FitProfiler learns a profiler from measurements.
func FitProfiler(ms []Measurement, maxDepth, minLeaf int) (*Profiler, error) {
	if len(ms) < 2*minLeaf {
		return nil, fmt.Errorf("profiler: %d measurements too few for min leaf %d", len(ms), minLeaf)
	}
	if maxDepth < 0 || minLeaf < 2 {
		return nil, fmt.Errorf("profiler: bad tree parameters depth=%d leaf=%d", maxDepth, minLeaf)
	}
	p := &Profiler{minLeaf: minLeaf, maxDepth: maxDepth}
	p.root = p.build(ms, 0)
	return p, nil
}

func features(m Measurement) []float64 {
	return []float64{m.FLOPs, float64(m.Out), 1}
}

// fitLinear least-squares fits time ≈ coef·features via normal equations
// (3 features, so a tiny 3×3 solve).
func fitLinear(ms []Measurement) ([]float64, float64) {
	const k = 3
	var ata [k][k]float64
	var atb [k]float64
	for _, m := range ms {
		f := features(m)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ata[i][j] += f[i] * f[j]
			}
			atb[i] += f[i] * m.TimeMS
		}
	}
	// Ridge regularization for stability on small leaves.
	for i := 0; i < k; i++ {
		ata[i][i] += 1e-6
	}
	coef := solve3(ata, atb)
	var sse float64
	for _, m := range ms {
		f := features(m)
		pred := coef[0]*f[0] + coef[1]*f[1] + coef[2]*f[2]
		d := pred - m.TimeMS
		sse += d * d
	}
	return coef[:], sse
}

// solve3 solves a 3×3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(a [3][3]float64, b [3]float64) [3]float64 {
	const n = 3
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		if a[col][col] == 0 {
			continue
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [3]float64
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		if a[r][r] != 0 {
			x[r] = sum / a[r][r]
		}
	}
	return x
}

func (p *Profiler) build(ms []Measurement, depth int) *node {
	coef, sse := fitLinear(ms)
	if depth >= p.maxDepth || len(ms) < 2*p.minLeaf {
		return &node{coef: coef}
	}
	// Try splits on each feature at sample quantiles; keep the one
	// with the largest SSE reduction.
	bestGain := 0.0
	var best *node
	for feature := 0; feature < 2; feature++ {
		vals := make([]float64, len(ms))
		for i, m := range ms {
			vals[i] = features(m)[feature]
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.25, 0.5, 0.75} {
			th := vals[int(q*float64(len(vals)-1))]
			var left, right []Measurement
			for _, m := range ms {
				if features(m)[feature] <= th {
					left = append(left, m)
				} else {
					right = append(right, m)
				}
			}
			if len(left) < p.minLeaf || len(right) < p.minLeaf {
				continue
			}
			_, sseL := fitLinear(left)
			_, sseR := fitLinear(right)
			gain := sse - (sseL + sseR)
			if gain > bestGain {
				bestGain = gain
				best = &node{
					feature:   feature,
					threshold: th,
					left:      p.build(left, depth+1),
					right:     p.build(right, depth+1),
				}
			}
		}
	}
	// Require a meaningful improvement to split.
	if best == nil || bestGain < 1e-9+0.01*sse {
		return &node{coef: coef}
	}
	return best
}

// PredictMS predicts the execution time of the given configuration.
func (p *Profiler) PredictMS(in, out int) float64 {
	s := ShapeFor(in, out)
	m := Measurement{In: in, Out: out, FLOPs: s.FLOPs() / 1e6}
	n := p.root
	for n.coef == nil {
		if features(m)[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	f := features(m)
	t := n.coef[0]*f[0] + n.coef[1]*f[1] + n.coef[2]*f[2]
	if t < 0 {
		t = 0
	}
	return t
}

// Leaves counts the tree's linear regions.
func (p *Profiler) Leaves() int {
	var count func(n *node) int
	count = func(n *node) int {
		if n.coef != nil {
			return 1
		}
		return count(n.left) + count(n.right)
	}
	return count(p.root)
}

// MAPE returns the mean absolute percentage error of the profiler on the
// given measurements.
func (p *Profiler) MAPE(ms []Measurement) float64 {
	if len(ms) == 0 {
		return 0
	}
	var sum float64
	for _, m := range ms {
		pred := p.PredictMS(m.In, m.Out)
		sum += math.Abs(pred-m.TimeMS) / math.Max(m.TimeMS, 1e-9)
	}
	return sum / float64(len(ms))
}
