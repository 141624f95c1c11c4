package cache

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"eugene/internal/dataset"
)

func TestFreqTrackerBasics(t *testing.T) {
	f, err := NewFreqTracker(5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		f.Observe(2)
	}
	for i := 0; i < 30; i++ {
		f.Observe(4)
	}
	if got := f.Share(2); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("share(2) = %v", got)
	}
	top, share := f.TopK(2)
	if top[0] != 2 || top[1] != 4 {
		t.Fatalf("top2 = %v", top)
	}
	if math.Abs(share-1.0) > 1e-9 {
		t.Fatalf("top2 share = %v", share)
	}
	// Out-of-range observations are ignored.
	f.Observe(-1)
	f.Observe(99)
	if f.Share(-1) != 0 || f.Share(99) != 0 {
		t.Fatal("out-of-range share must be 0")
	}
}

func TestFreqTrackerDecayForgets(t *testing.T) {
	f, _ := NewFreqTracker(3, 0.9)
	for i := 0; i < 50; i++ {
		f.Observe(0)
	}
	for i := 0; i < 50; i++ {
		f.Observe(1)
	}
	// Recent traffic dominates under decay.
	if f.Share(1) <= f.Share(0) {
		t.Fatalf("decay failed: share(1)=%v share(0)=%v", f.Share(1), f.Share(0))
	}
}

func TestFreqTrackerErrors(t *testing.T) {
	if _, err := NewFreqTracker(0, 0.9); err == nil {
		t.Fatal("expected class-count error")
	}
	if _, err := NewFreqTracker(3, 0); err == nil {
		t.Fatal("expected decay error")
	}
	if _, err := NewFreqTracker(3, 1.5); err == nil {
		t.Fatal("expected decay error")
	}
}

func TestPolicyDecide(t *testing.T) {
	f, _ := NewFreqTracker(10, 1.0)
	p := Policy{MinShare: 0.7, MinObservations: 100, MaxClasses: 3}
	// Not enough observations yet.
	for i := 0; i < 50; i++ {
		f.Observe(1)
	}
	if got := p.Decide(f); got != nil {
		t.Fatalf("decided too early: %v", got)
	}
	for i := 0; i < 50; i++ {
		f.Observe(1)
	}
	hot := p.Decide(f)
	if len(hot) != 1 || hot[0] != 1 {
		t.Fatalf("hot = %v, want [1]", hot)
	}
}

func TestPolicyDecidePicksSmallestK(t *testing.T) {
	f, _ := NewFreqTracker(10, 1.0)
	// 45% class 0, 35% class 1, rest spread.
	for i := 0; i < 45; i++ {
		f.Observe(0)
	}
	for i := 0; i < 35; i++ {
		f.Observe(1)
	}
	for i := 0; i < 20; i++ {
		f.Observe(2 + i%8)
	}
	p := Policy{MinShare: 0.7, MinObservations: 50, MaxClasses: 3}
	hot := p.Decide(f)
	if len(hot) != 2 {
		t.Fatalf("hot = %v, want 2 classes", hot)
	}
}

func TestPolicyDecideUnreachableShare(t *testing.T) {
	f, _ := NewFreqTracker(10, 1.0)
	for i := 0; i < 1000; i++ {
		f.Observe(i % 10) // uniform
	}
	p := Policy{MinShare: 0.7, MinObservations: 100, MaxClasses: 3}
	if hot := p.Decide(f); hot != nil {
		t.Fatalf("uniform traffic should not justify caching, got %v", hot)
	}
}

// trainData builds a small separable dataset shared by subset tests.
func trainData(t *testing.T) (*dataset.Set, *dataset.Set) {
	t.Helper()
	cfg := dataset.SynthConfig{
		Classes: 6, Dim: 16, ModesPerClass: 1,
		TrainSize: 600, TestSize: 300,
		NoiseLo: 0.3, NoiseHi: 0.9, Overlap: 0.1,
	}
	train, test, err := dataset.SynthCIFAR(cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestTrainSubsetAccuracy(t *testing.T) {
	train, test := trainData(t)
	hot := []int{1, 3}
	m, err := TrainSubset(train, hot, 24, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	var hotTotal, hotRight, otherTotal, otherRight int
	for i := 0; i < test.Len(); i++ {
		x, y := test.Sample(i)
		pred, _, isOther := m.Predict(x)
		if y == 1 || y == 3 {
			hotTotal++
			if !isOther && pred == y {
				hotRight++
			}
		} else {
			otherTotal++
			if isOther {
				otherRight++
			}
		}
	}
	if acc := float64(hotRight) / float64(hotTotal); acc < 0.7 {
		t.Fatalf("hot-class accuracy %v too low", acc)
	}
	if acc := float64(otherRight) / float64(otherTotal); acc < 0.7 {
		t.Fatalf("other detection %v too low", acc)
	}
}

func TestTrainSubsetErrors(t *testing.T) {
	train, _ := trainData(t)
	if _, err := TrainSubset(train, nil, 8, 2, 1); err == nil {
		t.Fatal("expected empty-hot-set error")
	}
	if _, err := TrainSubset(train, []int{1}, 0, 2, 1); err == nil {
		t.Fatal("expected hidden error")
	}
	if _, err := TrainSubset(train, []int{1}, 8, 0, 1); err == nil {
		t.Fatal("expected epochs error")
	}
}

type stubServer struct {
	calls int
}

func (s *stubServer) Classify(x []float64) (int, float64) {
	s.calls++
	return 0, 0.99
}

func TestDeviceHitMissAccounting(t *testing.T) {
	train, test := trainData(t)
	hot := []int{1, 3}
	m, err := TrainSubset(train, hot, 24, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := &stubServer{}
	dev := &Device{Cached: m, ConfThreshold: 0.6, Server: srv}
	rng := rand.New(rand.NewSource(2))
	// Zipf-like stream hot on classes 1 and 3.
	var served int
	for i := 0; i < 400; i++ {
		var want int
		if rng.Float64() < 0.8 {
			want = hot[rng.Intn(2)]
		} else {
			want = rng.Intn(6)
		}
		// Find a test sample with that label.
		for j := 0; j < test.Len(); j++ {
			idx := (i*13 + j) % test.Len()
			if test.Labels[idx] == want {
				dev.Classify(test.X.Row(idx))
				served++
				break
			}
		}
	}
	if dev.Hits+dev.Misses != served {
		t.Fatalf("accounting mismatch: %d+%d != %d", dev.Hits, dev.Misses, served)
	}
	if dev.HitRate() < 0.5 {
		t.Fatalf("hit rate %v too low for an 80%%-hot stream", dev.HitRate())
	}
	if srv.calls != dev.Misses {
		t.Fatalf("server called %d times for %d misses", srv.calls, dev.Misses)
	}
}

func TestDeviceWithoutCacheEscalatesEverything(t *testing.T) {
	srv := &stubServer{}
	dev := &Device{Server: srv}
	for i := 0; i < 5; i++ {
		_, _, local := dev.Classify([]float64{1, 2})
		if local {
			t.Fatal("uncached device answered locally")
		}
	}
	if dev.HitRate() != 0 || srv.calls != 5 {
		t.Fatalf("hit rate %v, server calls %d", dev.HitRate(), srv.calls)
	}
}

func TestLatencyModel(t *testing.T) {
	l := DefaultLatencyModel()
	local := l.LocalNS(1000)
	escalate := l.EscalateNS(100000)
	if local >= escalate {
		t.Fatalf("small local model (%v) should beat escalation (%v)", local, escalate)
	}
	if l.LocalNS(0) != 0 {
		t.Fatal("zero params should cost zero locally")
	}
}

func TestSubsetModelParams(t *testing.T) {
	train, _ := trainData(t)
	m, err := TrainSubset(train, []int{0}, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 16*8 + 8 + 8*2 + 2
	if m.Params() != want {
		t.Fatalf("params = %d, want %d", m.Params(), want)
	}
}

func TestFreqTrackerTopKExcludesZeroCounts(t *testing.T) {
	f, _ := NewFreqTracker(10, 0.999)
	// Fresh tracker: nothing observed, nothing hot.
	if top, share := f.TopK(3); len(top) != 0 || share != 0 {
		t.Fatalf("fresh tracker TopK = %v (share %v), want empty", top, share)
	}
	// Quiet tracker: only class 7 was ever seen; the slate must not be
	// padded with never-observed class ids.
	f.Observe(7)
	top, share := f.TopK(3)
	if len(top) != 1 || top[0] != 7 {
		t.Fatalf("TopK = %v, want [7]", top)
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("share = %v, want 1", share)
	}
	// A decision over a quiet tracker must not trigger on zero-count
	// classes either.
	p := Policy{MinShare: 0.7, MinObservations: 0.5, MaxClasses: 3}
	if hot := p.Decide(f); len(hot) != 1 || hot[0] != 7 {
		t.Fatalf("Decide = %v, want [7]", hot)
	}
}

func TestFreqTrackerLazyDecayMatchesEager(t *testing.T) {
	// The lazily-scaled tracker must produce the same shares as the
	// eager reference sweep.
	const decay = 0.9
	f, _ := NewFreqTracker(4, decay)
	ref := make([]float64, 4)
	var refTotal float64
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		c := rng.Intn(4)
		for j := range ref {
			ref[j] *= decay
		}
		refTotal = refTotal*decay + 1
		ref[c]++
		f.Observe(c)
	}
	for c := 0; c < 4; c++ {
		if got, want := f.Share(c), ref[c]/refTotal; math.Abs(got-want) > 1e-9 {
			t.Fatalf("share(%d) = %v, want %v", c, got, want)
		}
	}
	if got := f.Observations(); math.Abs(got-refTotal) > 1e-6*refTotal {
		t.Fatalf("observations = %v, want %v", got, refTotal)
	}
}

func TestFreqTrackerRenormalizeSurvivesLongStreams(t *testing.T) {
	// decay = 0.5 doubles the lazy scale per observation, so a few
	// hundred observations cross the renormalization threshold many
	// times; shares must stay finite and correct throughout.
	f, _ := NewFreqTracker(3, 0.5)
	for i := 0; i < 500; i++ {
		f.Observe(i % 2)
	}
	s0, s1 := f.Share(0), f.Share(1)
	if math.IsNaN(s0) || math.IsInf(s0, 0) || math.IsNaN(s1) || math.IsInf(s1, 0) {
		t.Fatalf("shares overflowed: %v %v", s0, s1)
	}
	// The last observation was class 1 (i=499), so under heavy decay
	// class 1 dominates: share ≈ (1 + 1/4 + ...) / (1 + 1/2 + 1/4 + ...) = 2/3.
	if math.Abs(s1-2.0/3) > 1e-6 {
		t.Fatalf("share(1) = %v, want 2/3", s1)
	}
	if math.Abs(s0+s1-1) > 1e-9 {
		t.Fatalf("shares must sum to 1, got %v", s0+s1)
	}
}

func TestFreqTrackerConcurrent(t *testing.T) {
	// Hammer the tracker from concurrent observers and readers; run with
	// -race. Final counts must account for every observation exactly.
	f, _ := NewFreqTracker(8, 1.0) // decay 1: counts are exact totals
	const (
		writers = 4
		readers = 2
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				f.Observe(rng.Intn(8))
			}
		}(int64(w))
	}
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := DefaultPolicy()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.TopK(3)
				f.Share(1)
				p.Decide(f)
			}
		}()
	}
	// Wait for writers only, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers finish independently of readers; give readers the stop
	// signal once total observations arrive.
	for f.Observations() < writers*perG {
		runtime.Gosched()
	}
	close(stop)
	<-done
	if got := f.Observations(); got != writers*perG {
		t.Fatalf("observations = %v, want %d", got, writers*perG)
	}
}

// SubsetParamCount counts what TrainSubset builds.
func TestSubsetParamCountMatchesModel(t *testing.T) {
	train, _ := trainData(t)
	for _, tc := range []struct {
		hot    []int
		hidden int
	}{{[]int{0}, 8}, {[]int{1, 3}, 24}, {[]int{0, 1, 2, 3}, 1}} {
		m, err := TrainSubset(train, tc.hot, tc.hidden, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := SubsetParamCount(train.X.Cols, len(tc.hot), tc.hidden); got != float64(m.Params()) {
			t.Fatalf("hot %v, hidden %d: SubsetParamCount %v, TrainSubset built %d", tc.hot, tc.hidden, got, m.Params())
		}
	}
}
