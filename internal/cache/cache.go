// Package cache implements Eugene's model caching service (paper
// Section II-B): the server tracks which classes a device actually
// encounters, decides when a hot subset justifies building a reduced
// local model, trains that subset model, and the device runtime serves
// hot-class inputs locally, escalating "cache misses" (unfamiliar or
// low-confidence inputs) to the full server model.
package cache

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"eugene/internal/dataset"
	"eugene/internal/nn"
	"eugene/internal/tensor"
)

// FreqTracker keeps exponentially decayed per-class request counts, the
// signal behind "what constitutes frequent inference tasks". It sits on
// the live serving path (one Observe per answered inference), so all
// methods are safe for concurrent use and Observe is O(1): instead of
// sweeping every class count on each observation, decay is applied
// lazily through a global scale factor — observation N is recorded with
// weight decay⁻ᴺ, and true decayed counts are recovered on read by
// dividing by the current weight (the scale cancels entirely in shares
// and orderings). The scaled counts are renormalized back to weight 1
// whenever the factor threatens float64 range, so the amortized cost
// stays O(1) per observation.
type FreqTracker struct {
	mu     sync.Mutex
	counts []float64 // scaled: true decayed count = counts[i] / inc
	total  float64   // scaled like counts
	decay  float64
	inc    float64 // weight of the next observation (grows by 1/decay per obs)
}

// renormAt bounds the lazy-decay scale factor: once the next
// observation's weight exceeds it, all scaled counts are divided back
// down so the factor never approaches float64 overflow (~1e308). The
// O(classes) renormalization runs once per ~log(renormAt)/log(1/decay)
// observations — amortized O(1).
const renormAt = 1e12

// NewFreqTracker tracks classes with the given per-observation decay
// (e.g. 0.999 ≈ a sliding window of ~1000 requests).
func NewFreqTracker(classes int, decay float64) (*FreqTracker, error) {
	if classes < 1 {
		return nil, fmt.Errorf("cache: need ≥1 class, got %d", classes)
	}
	if decay <= 0 || decay > 1 {
		return nil, fmt.Errorf("cache: decay %v outside (0,1]", decay)
	}
	return &FreqTracker{counts: make([]float64, classes), decay: decay, inc: 1}, nil
}

// Observe records one request for class c.
func (f *FreqTracker) Observe(c int) { f.ObserveN(c, 1) }

// ObserveN records n simultaneous requests for class c (decay applies
// once, as if a batch arrived together).
func (f *FreqTracker) ObserveN(c, n int) {
	if c < 0 || c >= len(f.counts) || n < 1 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inc /= f.decay
	f.counts[c] += float64(n) * f.inc
	f.total += float64(n) * f.inc
	if f.inc > renormAt {
		for i := range f.counts {
			f.counts[i] /= f.inc
		}
		f.total /= f.inc
		f.inc = 1
	}
}

// Share returns class c's fraction of decayed traffic.
func (f *FreqTracker) Share(c int) float64 {
	if c < 0 || c >= len(f.counts) {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.total == 0 {
		return 0
	}
	return f.counts[c] / f.total
}

// Observations returns the decayed total request count (the policy's
// traffic-volume gate).
func (f *FreqTracker) Observations() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total / f.inc
}

// Classes returns the number of tracked classes.
func (f *FreqTracker) Classes() int { return len(f.counts) }

// TrackerState is a FreqTracker's portable state: the exact internal
// representation (scaled counts plus the lazy-decay scale factor), so a
// tracker restored from it answers Share/Observations/TopK — and
// therefore every cache decision — bitwise identically to the original.
// This is what device-state handoff moves between cluster nodes on a
// planned drain.
type TrackerState struct {
	// Decay is the per-observation decay factor in (0,1].
	Decay float64
	// Inc is the weight of the next observation (the lazy-decay scale;
	// always in [1, renormAt]).
	Inc float64
	// Total is the scaled decayed total; Total/Inc is Observations().
	Total float64
	// Counts are the scaled per-class decayed counts (Counts[i]/Inc is
	// the true decayed count of class i).
	Counts []float64
}

// Validate rejects states no live tracker could have produced: wrong
// scale range, non-finite or negative values, or zero classes. It is
// the structural gate behind ImportTracker and the snapshot codec, so a
// corrupt or hostile migration payload cannot install a tracker that
// later yields NaN shares or phantom hot classes.
func (s TrackerState) Validate() error {
	if len(s.Counts) < 1 {
		return fmt.Errorf("cache: tracker state with no classes")
	}
	if !(s.Decay > 0 && s.Decay <= 1) { // NaN fails the comparison
		return fmt.Errorf("cache: tracker decay %v outside (0,1]", s.Decay)
	}
	if !(s.Inc >= 1 && s.Inc <= renormAt) {
		return fmt.Errorf("cache: tracker scale %v outside [1, %g]", s.Inc, float64(renormAt))
	}
	if !(s.Total >= 0) || math.IsInf(s.Total, 0) {
		return fmt.Errorf("cache: tracker total %v not a finite non-negative value", s.Total)
	}
	for i, c := range s.Counts {
		if !(c >= 0) || math.IsInf(c, 0) {
			return fmt.Errorf("cache: tracker count[%d] = %v not a finite non-negative value", i, c)
		}
	}
	return nil
}

// Export returns a copy of the tracker's current state, suitable for
// serialization and a later ImportTracker on another node.
func (f *FreqTracker) Export() TrackerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return TrackerState{
		Decay:  f.decay,
		Inc:    f.inc,
		Total:  f.total,
		Counts: append([]float64(nil), f.counts...),
	}
}

// ImportTracker reconstructs a tracker from exported state, validating
// it first. The restored tracker is observably identical to the one
// Export was called on: same shares, same observation total, same TopK
// ordering, bit for bit.
func ImportTracker(s TrackerState) (*FreqTracker, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &FreqTracker{
		counts: append([]float64(nil), s.Counts...),
		total:  s.Total,
		decay:  s.Decay,
		inc:    s.Inc,
	}, nil
}

// TopK returns the k most frequent observed classes (descending share,
// ties broken by lower class id) and their cumulative share. Classes
// that have never been observed (or whose count fully decayed away) are
// excluded, so a fresh or quiet tracker returns fewer than k classes —
// never a slate of arbitrary zero-count ids a cache decision could
// mistake for hot. Selection is a bounded partial pass — one scan
// maintaining the k best by insertion — so hot-set decisions cost
// O(classes·k) for the small k of a device hot set instead of sorting
// every class on every call.
func (f *FreqTracker) TopK(k int) ([]int, float64) {
	if k > len(f.counts) {
		k = len(f.counts)
	}
	if k <= 0 {
		return []int{}, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	top := make([]int, 0, k)
	for c, n := range f.counts {
		if n == 0 {
			continue
		}
		if len(top) == k && n <= f.counts[top[k-1]] {
			continue
		}
		i := len(top)
		if i < k {
			top = append(top, 0)
		} else {
			i = k - 1
		}
		for ; i > 0 && n > f.counts[top[i-1]]; i-- {
			top[i] = top[i-1]
		}
		top[i] = c
	}
	var share float64
	if f.total > 0 {
		for _, c := range top {
			share += f.counts[c] / f.total
		}
	}
	return top, share
}

// Policy decides when caching a reduced model is worthwhile, adapting
// the hot-set size to device capacity as the paper's open questions
// suggest.
type Policy struct {
	// MinShare is the minimum cumulative traffic share the hot set
	// must cover before a reduced model is built.
	MinShare float64
	// MinObservations gates decisions until enough traffic is seen.
	MinObservations float64
	// MaxClasses bounds the hot set (device capacity proxy).
	MaxClasses int
}

// DefaultPolicy covers ≥70% of traffic with at most 3 hot classes after
// 200 observations.
func DefaultPolicy() Policy {
	return Policy{MinShare: 0.7, MinObservations: 200, MaxClasses: 3}
}

// Decide returns the hot classes to cache, or nil when caching is not
// yet justified. It picks the smallest K ≤ MaxClasses reaching MinShare.
func (p Policy) Decide(f *FreqTracker) []int {
	hot, _ := p.DecideShare(f)
	return hot
}

// DecideShare is Decide plus the cumulative traffic share of the chosen
// hot set — the exact value that crossed MinShare, so callers reporting
// the decision don't re-derive a share that concurrent observations may
// already have moved.
func (p Policy) DecideShare(f *FreqTracker) ([]int, float64) {
	if f.Observations() < p.MinObservations {
		return nil, 0
	}
	for k := 1; k <= p.MaxClasses; k++ {
		top, share := f.TopK(k)
		if len(top) > 0 && share >= p.MinShare {
			return top, share
		}
	}
	return nil, 0
}

// SubsetModel is the reduced model cached on the device: a small dense
// classifier over the hot classes plus an explicit "other" class, as in
// the paper's yes/no/neither example.
type SubsetModel struct {
	Net     *nn.Sequential
	Hot     []int // hot class ids, in model output order
	classes int   // hot + 1 (other)
	in      int
}

// RestoreSubset rebuilds a SubsetModel from its parts (a decoded
// snapshot): net must map in features to len(hot)+1 outputs (hot classes
// in order plus the trailing "other" class).
func RestoreSubset(net *nn.Sequential, hot []int, in int) (*SubsetModel, error) {
	if net == nil || len(hot) < 1 || in < 1 {
		return nil, fmt.Errorf("cache: bad subset restore (net=%v, %d hot, in=%d)", net == nil, len(hot), in)
	}
	return &SubsetModel{Net: net, Hot: append([]int(nil), hot...), classes: len(hot) + 1, in: in}, nil
}

// InputWidth returns the model's expected feature width.
func (s *SubsetModel) InputWidth() int { return s.in }

// Params returns the parameter count (the device-footprint proxy).
func (s *SubsetModel) Params() int { return nn.ParamCount(s.Net) }

// SubsetParamCount is the number of parameters TrainSubset builds for in
// features, hot classes and hidden units, counted without building
// anything. It is a float64 so that no request's sizes overflow it.
func SubsetParamCount(in, hot, hidden int) float64 {
	return float64(in)*float64(hidden) + float64(hidden) + float64(hidden)*float64(hot+1) + float64(hot+1)
}

// TrainSubset trains a reduced model on the hot classes: samples of
// other classes become the "other" category. hidden controls the model
// footprint.
func TrainSubset(train *dataset.Set, hot []int, hidden, epochs int, seed int64) (*SubsetModel, error) {
	if len(hot) < 1 {
		return nil, fmt.Errorf("cache: empty hot set")
	}
	if hidden < 1 || epochs < 1 {
		return nil, fmt.Errorf("cache: bad subset model config hidden=%d epochs=%d", hidden, epochs)
	}
	hotIdx := make(map[int]int, len(hot))
	for i, c := range hot {
		hotIdx[c] = i
	}
	other := len(hot)
	labels := make([]int, train.Len())
	for i, l := range train.Labels {
		if j, ok := hotIdx[l]; ok {
			labels[i] = j
		} else {
			labels[i] = other
		}
	}
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewSequential(
		nn.NewDense(rng, train.X.Cols, hidden),
		nn.NewReLU(),
		nn.NewDense(rng, hidden, len(hot)+1),
	)
	opt := nn.NewSGD(0.05, 0.9, 1e-4)
	params := net.Params()
	order := rng.Perm(train.Len())
	const batch = 32
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			x := tensor.NewMatrix(end-start, train.X.Cols)
			bl := make([]int, end-start)
			for i := start; i < end; i++ {
				copy(x.Row(i-start), train.X.Row(order[i]))
				bl[i-start] = labels[order[i]]
			}
			out := net.Forward(x, true)
			grad := tensor.NewMatrix(out.Rows, out.Cols)
			nn.SoftmaxCE(grad, out, bl, 0)
			net.Backward(grad)
			opt.Step(params)
		}
	}
	return &SubsetModel{Net: net, Hot: append([]int(nil), hot...), classes: len(hot) + 1, in: train.X.Cols}, nil
}

// Predict classifies one sample: (class, confidence, isOther).
func (s *SubsetModel) Predict(x []float64) (int, float64, bool) {
	in := tensor.FromSlice(1, len(x), x)
	out := s.Net.Forward(in, false)
	probs := tensor.NewMatrix(1, s.classes)
	tensor.Softmax(probs, out)
	idx, conf := tensor.ArgMax(probs.Row(0))
	if idx == len(s.Hot) {
		return -1, conf, true
	}
	return s.Hot[idx], conf, false
}

// ServerModel is the escalation target for cache misses.
type ServerModel interface {
	// Classify returns the full model's answer and confidence.
	Classify(x []float64) (int, float64)
}

// Device is the client-side runtime: it serves hot-class inputs from the
// cached reduced model and escalates misses to the server.
type Device struct {
	// Cached is the local reduced model; nil means everything
	// escalates.
	Cached *SubsetModel
	// ConfThreshold is the minimum local confidence to trust a hit.
	ConfThreshold float64
	// Server is the miss path.
	Server ServerModel

	// Stats.
	Hits, Misses int
}

// Classify answers one request, tracking hit/miss statistics. The
// returned bool reports whether the answer was served locally.
func (d *Device) Classify(x []float64) (int, float64, bool) {
	if d.Cached != nil {
		if c, conf, other := d.Cached.Predict(x); !other && conf >= d.ConfThreshold {
			d.Hits++
			return c, conf, true
		}
	}
	d.Misses++
	c, conf := d.Server.Classify(x)
	return c, conf, false
}

// HitRate returns the local-answer fraction.
func (d *Device) HitRate() float64 {
	total := d.Hits + d.Misses
	if total == 0 {
		return 0
	}
	return float64(d.Hits) / float64(total)
}

// LatencyModel converts a model footprint into a latency estimate so
// experiments can report the caching win without wall-clock noise.
type LatencyModel struct {
	// DeviceNSPerParam and ServerNSPerParam are per-parameter compute
	// costs (the server is faster per parameter).
	DeviceNSPerParam float64
	ServerNSPerParam float64
	// NetworkRTTNS is the round trip added to every escalation.
	NetworkRTTNS float64
}

// DefaultLatencyModel: a device ~10× slower per parameter than the edge
// server, 20 ms RTT.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		DeviceNSPerParam: 10,
		ServerNSPerParam: 1,
		NetworkRTTNS:     20e6,
	}
}

// LocalNS returns the modeled local-inference latency.
func (l LatencyModel) LocalNS(params int) float64 { return l.DeviceNSPerParam * float64(params) }

// EscalateNS returns the modeled miss latency.
func (l LatencyModel) EscalateNS(serverParams int) float64 {
	return l.NetworkRTTNS + l.ServerNSPerParam*float64(serverParams)
}
