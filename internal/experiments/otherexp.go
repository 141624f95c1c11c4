package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"eugene/internal/cache"
	"eugene/internal/collab"
	"eugene/internal/dataset"
	"eugene/internal/labeling"
	"eugene/internal/nn"
	"eugene/internal/profiler"
	"eugene/internal/reduce"
	"eugene/internal/tensor"
)

// Table1Row is one configuration of the paper's Table I.
type Table1Row struct {
	Name        string
	In, Out     int
	MFLOPs      float64
	ModelMS     float64 // device cost model
	LearnedMS   float64 // piecewise-linear profiler prediction
	PaperTimeMS float64
}

// Table1Result reproduces the conv-layer profiling table.
type Table1Result struct {
	Rows []Table1Row
	// ProfilerMAPE is the learned profiler's error on a held-out
	// configuration sweep.
	ProfilerMAPE float64
	Leaves       int
}

// Table1 runs the device model over the published configurations and
// fits the FastDeepIoT-style profiler on a measurement sweep.
func Table1(seed int64) (*Table1Result, error) {
	device := profiler.DefaultDevice()
	noisy := device
	noisy.NoiseStd = 0.02
	var sweep []int
	for c := 4; c <= 96; c += 4 {
		sweep = append(sweep, c)
	}
	train := profiler.CollectMeasurements(noisy, sweep, sweep, seed)
	p, err := profiler.FitProfiler(train, 6, 8)
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting profiler: %w", err)
	}
	held := profiler.CollectMeasurements(device, []int{6, 13, 27, 45, 70}, []int{6, 13, 27, 45, 70}, seed+1)
	res := &Table1Result{ProfilerMAPE: p.MAPE(held), Leaves: p.Leaves()}
	for _, cfg := range profiler.TableI() {
		shape := profiler.ShapeFor(cfg.In, cfg.Out)
		res.Rows = append(res.Rows, Table1Row{
			Name:        cfg.Name,
			In:          cfg.In,
			Out:         cfg.Out,
			MFLOPs:      shape.FLOPs() / 1e6,
			ModelMS:     device.TimeMS(shape, nil),
			LearnedMS:   p.PredictMS(cfg.In, cfg.Out),
			PaperTimeMS: cfg.PaperTimeMS,
		})
	}
	return res, nil
}

// Render prints Table I with paper values alongside. MFLOPs use the
// standard 2·MACs convention (the paper's own convention differs by a
// constant factor; ratios are identical). The device column is an
// input: profiler.DefaultDevice is fit to the paper column, so only the
// learned profiler's column and MAPE are results.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table I: conv layer execution time, 3x3 kernel, 224x224 input (ours | paper)\n")
	fmt.Fprintf(&b, "%-6s %-4s %-4s %-10s %-12s %-12s %-10s\n",
		"", "in", "out", "MFLOPs", "device ms*", "learned ms", "paper ms")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %-4d %-4d %-10.1f %-12.1f %-12.1f %-10.1f\n",
			row.Name, row.In, row.Out, row.MFLOPs, row.ModelMS, row.LearnedMS, row.PaperTimeMS)
	}
	b.WriteString("* input, not a result: the device model is fit to the paper ms column\n")
	fmt.Fprintf(&b, "learned profiler: %d piecewise-linear regions, held-out MAPE %.1f%%\n",
		r.Leaves, 100*r.ProfilerMAPE)
	return b.String()
}

// Table4Result reproduces the collaborative-inferencing comparison plus
// the rogue/resilience extension.
type Table4Result struct {
	Individual    *collab.RunResult
	Collaborative *collab.RunResult
	Rogue         *collab.RunResult
	Resilient     *collab.RunResult
	PaperIndAcc   float64
	PaperColAcc   float64
	PaperIndMS    float64
	PaperColMS    float64
}

// Table4 runs the four camera-network experiments.
func Table4() (*Table4Result, error) {
	ind := collab.DefaultRunConfig()
	ri, err := collab.Run(ind)
	if err != nil {
		return nil, err
	}
	col := collab.DefaultRunConfig()
	col.Collaborative = true
	rc, err := collab.Run(col)
	if err != nil {
		return nil, err
	}
	rog := col
	rog.Rogues = []int{3}
	rr, err := collab.Run(rog)
	if err != nil {
		return nil, err
	}
	res := rog
	res.Resilient = true
	rs, err := collab.Run(res)
	if err != nil {
		return nil, err
	}
	return &Table4Result{
		Individual:    ri,
		Collaborative: rc,
		Rogue:         rr,
		Resilient:     rs,
		PaperIndAcc:   0.68,
		PaperColAcc:   0.755,
		PaperIndMS:    550,
		PaperColMS:    25,
	}, nil
}

// Render prints Table IV and the resilience extension. The latency
// column is an input: collab.DefaultLatency is set to the paper's
// values, so only detection accuracy is a result.
func (r *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table IV: collaborative deep IoT inferencing (ours | paper)\n")
	fmt.Fprintf(&b, "%-16s %-22s %-22s\n", "approach", "detection accuracy", "recognition latency*")
	fmt.Fprintf(&b, "%-16s %-22s %-22s\n", "Individual",
		fmt.Sprintf("%.1f%% | %.1f%%", 100*r.Individual.DetectionAccuracy, 100*r.PaperIndAcc),
		fmt.Sprintf("%.0f ms | %.0f ms", r.Individual.MeanLatencyMS, r.PaperIndMS))
	fmt.Fprintf(&b, "%-16s %-22s %-22s\n", "Collaborative",
		fmt.Sprintf("%.1f%% | %.1f%%", 100*r.Collaborative.DetectionAccuracy, 100*r.PaperColAcc),
		fmt.Sprintf("%.0f ms | %.0f ms", r.Collaborative.MeanLatencyMS, r.PaperColMS))
	b.WriteString("* input, not a result: the latency model is set to the paper's values\n")
	b.WriteString("\nExtension (Sec. IV-C resilience):\n")
	fmt.Fprintf(&b, "with rogue camera:      %.1f%% (damage %.1f pts; paper: >20 pts)\n",
		100*r.Rogue.DetectionAccuracy,
		100*(r.Collaborative.DetectionAccuracy-r.Rogue.DetectionAccuracy))
	fmt.Fprintf(&b, "with resilience:        %.1f%% (distrusted cameras %v, false boxes accepted %d)\n",
		100*r.Resilient.DetectionAccuracy, r.Resilient.Distrusted, r.Resilient.FalseAccepted)
	return b.String()
}

// PruningPoint is one compression level in the pruning ablation.
type PruningPoint struct {
	Compression float64 // fraction of parameters removed
	EdgeNS      float64 // sparse matvec time
	NodeNS      float64 // dense (node-pruned) matvec time
	DenseNS     float64 // unpruned dense baseline
	EdgeStorage float64 // CSR storage ratio vs dense
	NodeStorage float64
}

// PruningResult is the Section II-B ablation: node pruning's savings
// scale with compression; edge pruning's do not.
type PruningResult struct {
	Size   int
	Points []PruningPoint
}

// Pruning measures sparse-vs-dense inference cost across compression
// ratios on a size×size dense layer.
func Pruning(size int, seed int64) (*PruningResult, error) {
	if size < 8 {
		return nil, fmt.Errorf("experiments: pruning size %d too small", size)
	}
	rng := rand.New(rand.NewSource(seed))
	d1 := nn.NewDense(rng, size, size)
	d2 := nn.NewDense(rng, size, size)
	x := make([]float64, size)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, size)
	w1 := reduce.OutIn(d1)
	denseNS := timeNS(func() { reduce.DenseMatVec(dst, w1, x) })
	res := &PruningResult{Size: size}
	for _, comp := range []float64{0.5, 0.7, 0.9} {
		csr, err := reduce.EdgePrune(d1, comp)
		if err != nil {
			return nil, err
		}
		edgeNS := timeNS(func() { csr.MatVec(dst, x) })
		keep := int(float64(size) * (1 - comp))
		if keep < 1 {
			keep = 1
		}
		n1, n2, _, err := reduce.NodePrune(d1, d2, keep)
		if err != nil {
			return nil, err
		}
		small, wn := make([]float64, keep), reduce.OutIn(n1)
		nodeNS := timeNS(func() { reduce.DenseMatVec(small, wn, x) })
		res.Points = append(res.Points, PruningPoint{
			Compression: comp,
			EdgeNS:      edgeNS,
			NodeNS:      nodeNS,
			DenseNS:     denseNS,
			EdgeStorage: reduce.EdgeReport(d1, csr).StorageRatio,
			NodeStorage: reduce.NodeReport(d1, d2, n1, n2).StorageRatio,
		})
	}
	return res, nil
}

// Render prints the ablation.
func (r *PruningResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Model reduction ablation (Sec. II-B): %dx%d layer, matvec cost\n", r.Size, r.Size)
	fmt.Fprintf(&b, "%-12s %-14s %-14s %-14s %-12s %-12s\n",
		"compression", "edge(sparse)", "node(dense)", "vs dense", "edge store", "node store")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-12.0f%% %-14.2f %-14.2f %-14.2f %-12.2f %-12.2f\n",
			100*p.Compression, p.EdgeNS/p.DenseNS, p.NodeNS/p.DenseNS, 1.0,
			p.EdgeStorage, p.NodeStorage)
	}
	b.WriteString("(values are time ratios vs the unpruned dense layer; node pruning tracks\n")
	b.WriteString(" the compression ratio, sparse edge pruning does not — the paper's claim)\n")
	return b.String()
}

// LabelingResult is the Section II-A auto-labeling experiment.
type LabelingResult struct {
	LabeledFraction float64
	Agreement       float64
	// AccFull / AccProposed / AccSeedOnly are downstream model
	// accuracies trained on ground-truth, proposed, and seed-only
	// labels respectively.
	AccFull     float64
	AccProposed float64
	AccSeedOnly float64
}

// Labeling runs the auto-labeling pipeline: propose labels from a small
// seed set, train a downstream classifier on them, and compare with
// fully supervised and seed-only training.
func Labeling(seed int64) (*LabelingResult, error) {
	dcfg := dataset.SynthConfig{
		Classes: 5, Dim: 48, ModesPerClass: 1,
		TrainSize: 1200, TestSize: 400,
		NoiseLo: 2.4, NoiseHi: 4.2, Overlap: 0.1,
	}
	train, test, err := dataset.SynthCIFAR(dcfg, seed)
	if err != nil {
		return nil, err
	}
	// ~1.3% labeled: 3 seeds per class.
	rng := rand.New(rand.NewSource(seed + 1))
	perClass := 3
	counts := make([]int, dcfg.Classes)
	var seedIdx []int
	for _, i := range rng.Perm(train.Len()) {
		c := train.Labels[i]
		if counts[c] < perClass {
			counts[c]++
			seedIdx = append(seedIdx, i)
		}
	}
	prop, err := labeling.Propose(train, seedIdx, dcfg.Classes, labeling.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res := &LabelingResult{
		LabeledFraction: float64(len(seedIdx)) / float64(train.Len()),
		Agreement:       labeling.Agreement(train, seedIdx, prop),
	}
	trainOn := func(x *dataset.Set) (float64, error) {
		m := nn.NewSequential(
			nn.NewDense(rand.New(rand.NewSource(seed+2)), dcfg.Dim, 32),
			nn.NewReLU(),
			nn.NewDense(rand.New(rand.NewSource(seed+3)), 32, dcfg.Classes),
		)
		opt := nn.NewSGD(0.05, 0.9, 1e-4)
		params := m.Params()
		data := x.Subset(seqInts(x.Len()))
		shuffler := rand.New(rand.NewSource(seed + 4))
		for e := 0; e < 20; e++ {
			data.Shuffle(shuffler)
			data.Batches(32, func(xb *tensor.Matrix, lb []int) {
				out := m.Forward(xb, true)
				grad := tensor.NewMatrix(out.Rows, out.Cols)
				nn.SoftmaxCE(grad, out, lb, 0)
				m.Backward(grad)
				opt.Step(params)
			})
		}
		var right int
		for i := 0; i < test.Len(); i++ {
			xs, y := test.Sample(i)
			out := m.Forward(tensor.FromSlice(1, len(xs), xs), false)
			p, _ := tensor.ArgMax(out.Row(0))
			if p == y {
				right++
			}
		}
		return float64(right) / float64(test.Len()), nil
	}
	full, err := trainOn(train)
	if err != nil {
		return nil, err
	}
	proposed := train.Subset(seqInts(train.Len()))
	copy(proposed.Labels, prop.Labels)
	accProp, err := trainOn(proposed)
	if err != nil {
		return nil, err
	}
	seedOnly := train.Subset(seedIdx)
	accSeed, err := trainOn(seedOnly)
	if err != nil {
		return nil, err
	}
	res.AccFull = full
	res.AccProposed = accProp
	res.AccSeedOnly = accSeed
	return res, nil
}

// Render prints the labeling experiment.
func (r *LabelingResult) Render() string {
	var b strings.Builder
	b.WriteString("Auto-labeling (Sec. II-A, SenseGAN-style):\n")
	fmt.Fprintf(&b, "labeled fraction:          %.1f%%\n", 100*r.LabeledFraction)
	fmt.Fprintf(&b, "proposed-label agreement:  %.1f%%\n", 100*r.Agreement)
	fmt.Fprintf(&b, "downstream test accuracy:  full labels %.1f%% | proposed %.1f%% | seed-only %.1f%%\n",
		100*r.AccFull, 100*r.AccProposed, 100*r.AccSeedOnly)
	return b.String()
}

// CachingResult is the Section II-B caching experiment.
type CachingResult struct {
	HotClasses    []int
	HitRate       float64
	Accuracy      float64
	MeanLatencyMS float64
	// AllServerMS is the no-cache baseline latency.
	AllServerMS  float64
	DeviceParams int
	ServerParams int
}

// Caching simulates a smart-fridge device under a Zipf request stream:
// the tracker identifies hot classes, a subset model is trained and
// cached, and requests are served locally when confident.
func Caching(seed int64) (*CachingResult, error) {
	dcfg := dataset.SynthConfig{
		Classes: 10, Dim: 24, ModesPerClass: 1,
		TrainSize: 1500, TestSize: 600,
		NoiseLo: 0.3, NoiseHi: 0.9, Overlap: 0.08,
	}
	train, test, err := dataset.SynthCIFAR(dcfg, seed)
	if err != nil {
		return nil, err
	}
	// Server: a larger model over all classes.
	server, err := cache.TrainSubset(train, seqInts(dcfg.Classes), 96, 20, seed+1)
	if err != nil {
		return nil, err
	}
	serverFn := serverAdapter{server}
	// Phase 1: observe traffic to find hot classes.
	rng := rand.New(rand.NewSource(seed + 2))
	stream := dataset.NewZipfStream(rng, dcfg.Classes, 1.3)
	tracker, err := cache.NewFreqTracker(dcfg.Classes, 0.999)
	if err != nil {
		return nil, err
	}
	policy := cache.DefaultPolicy()
	var hot []int
	for i := 0; i < 2000; i++ {
		tracker.Observe(stream.Next())
		if hot == nil {
			hot = policy.Decide(tracker)
		}
	}
	if hot == nil {
		return nil, fmt.Errorf("experiments: caching policy never triggered on zipf(1.3)")
	}
	// Phase 2: build the reduced model and serve.
	sub, err := cache.TrainSubset(train, hot, 24, 15, seed+3)
	if err != nil {
		return nil, err
	}
	dev := &cache.Device{Cached: sub, ConfThreshold: 0.8, Server: serverFn}
	lat := cache.DefaultLatencyModel()
	byClass := indexByClass(test, dcfg.Classes)
	var latencySum float64
	var right, served int
	for i := 0; i < 2000; i++ {
		want := stream.Next()
		pool := byClass[want]
		if len(pool) == 0 {
			continue
		}
		idx := pool[i%len(pool)]
		x, y := test.Sample(idx)
		pred, _, local := dev.Classify(x)
		served++
		if pred == y {
			right++
		}
		if local {
			latencySum += lat.LocalNS(sub.Params()) / 1e6
		} else {
			latencySum += lat.EscalateNS(server.Params()) / 1e6
		}
	}
	return &CachingResult{
		HotClasses:    hot,
		HitRate:       dev.HitRate(),
		Accuracy:      float64(right) / float64(served),
		MeanLatencyMS: latencySum / float64(served),
		AllServerMS:   lat.EscalateNS(server.Params()) / 1e6,
		DeviceParams:  sub.Params(),
		ServerParams:  server.Params(),
	}, nil
}

// Render prints the caching experiment.
func (r *CachingResult) Render() string {
	var b strings.Builder
	b.WriteString("Model caching (Sec. II-B, smart-fridge workload):\n")
	fmt.Fprintf(&b, "hot classes cached:   %v (device model %d params vs server %d)\n",
		r.HotClasses, r.DeviceParams, r.ServerParams)
	fmt.Fprintf(&b, "cache hit rate:       %.1f%%\n", 100*r.HitRate)
	fmt.Fprintf(&b, "end-to-end accuracy:  %.1f%%\n", 100*r.Accuracy)
	fmt.Fprintf(&b, "mean latency:         %.2f ms (vs %.2f ms all-server)\n", r.MeanLatencyMS, r.AllServerMS)
	return b.String()
}

type serverAdapter struct{ m *cache.SubsetModel }

// Classify implements cache.ServerModel: the server model covers all
// classes, so "other" never fires.
func (s serverAdapter) Classify(x []float64) (int, float64) {
	c, conf, other := s.m.Predict(x)
	if other {
		return -1, conf
	}
	return c, conf
}

func seqInts(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func indexByClass(s *dataset.Set, classes int) [][]int {
	out := make([][]int, classes)
	for i, l := range s.Labels {
		if l >= 0 && l < classes {
			out[l] = append(out[l], i)
		}
	}
	return out
}

// timeNS measures the per-call cost of fn in nanoseconds: the fastest
// of several rounds, each of enough calls to dominate timer resolution,
// so that one preemption on a loaded host cannot inflate the figure.
func timeNS(fn func()) float64 {
	const rounds, iters = 5, 2000
	best := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds()) / iters
}
