// Package dataset generates the seeded synthetic datasets that stand in
// for CIFAR-10 and the paper's sensor corpora. The
// generator is constructed so that the properties the Eugene experiments
// depend on hold: classes are multi-modal (depth helps), per-sample
// difficulty is heterogeneous (early exits help easy inputs), and class
// overlap bounds the Bayes accuracy below 100% (confidence is
// informative).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"eugene/internal/tensor"
)

// Set is a labeled dataset: one sample per row of X.
type Set struct {
	X      *tensor.Matrix
	Labels []int
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.Labels) }

// Sample returns a view of the i-th feature row and its label.
func (s *Set) Sample(i int) ([]float64, int) { return s.X.Row(i), s.Labels[i] }

// CheckLabels reports the first label outside [0, classes).
func (s *Set) CheckLabels(classes int) error {
	for i, y := range s.Labels {
		if y < 0 || y >= classes {
			return fmt.Errorf("dataset: sample %d has label %d outside [0,%d)", i, y, classes)
		}
	}
	return nil
}

// Subset copies the samples at the given indices into a new Set.
func (s *Set) Subset(idx []int) *Set {
	out := &Set{X: tensor.NewMatrix(len(idx), s.X.Cols), Labels: make([]int, len(idx))}
	for r, i := range idx {
		copy(out.X.Row(r), s.X.Row(i))
		out.Labels[r] = s.Labels[i]
	}
	return out
}

// Split partitions the set into a head of n samples and the remaining
// tail, without copying row order.
func (s *Set) Split(n int) (head, tail *Set) {
	if n < 0 || n > s.Len() {
		panic(fmt.Sprintf("dataset: split point %d outside [0,%d]", n, s.Len()))
	}
	idx := make([]int, s.Len())
	for i := range idx {
		idx[i] = i
	}
	return s.Subset(idx[:n]), s.Subset(idx[n:])
}

// Shuffle permutes the samples in place using rng.
func (s *Set) Shuffle(rng *rand.Rand) {
	rng.Shuffle(s.Len(), func(i, j int) {
		s.Labels[i], s.Labels[j] = s.Labels[j], s.Labels[i]
		ri, rj := s.X.Row(i), s.X.Row(j)
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
	})
}

// Batches invokes fn for consecutive mini-batches of up to batchSize
// samples. The batch matrix is reused across calls.
func (s *Set) Batches(batchSize int, fn func(x *tensor.Matrix, labels []int)) {
	if batchSize <= 0 {
		panic("dataset: batch size must be positive")
	}
	for start := 0; start < s.Len(); start += batchSize {
		end := start + batchSize
		if end > s.Len() {
			end = s.Len()
		}
		n := end - start
		x := tensor.FromSlice(n, s.X.Cols, s.X.Data[start*s.X.Cols:end*s.X.Cols])
		fn(x, s.Labels[start:end])
	}
}

// SynthConfig parameterizes the SynthCIFAR generator.
type SynthConfig struct {
	// Classes is the number of label classes (paper: 10).
	Classes int
	// Dim is the flattened feature dimension (default 3·8·8 = 192,
	// standing in for 3×32×32 CIFAR images).
	Dim int
	// ModesPerClass controls class multi-modality; >1 makes the task
	// genuinely nonlinear so that deeper stages improve accuracy.
	ModesPerClass int
	// TrainSize and TestSize are sample counts.
	TrainSize, TestSize int
	// NoiseLo and NoiseHi bound the per-sample noise scale; the spread
	// between them creates heterogeneous difficulty.
	NoiseLo, NoiseHi float64
	// Overlap in [0,1) mixes a fraction of a wrong-class mode into
	// some samples, bounding Bayes accuracy and creating genuinely
	// ambiguous inputs.
	Overlap float64
}

// DefaultSynthConfig returns the configuration used by the paper-scale
// experiments.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		Classes:       10,
		Dim:           192,
		ModesPerClass: 3,
		TrainSize:     6000,
		TestSize:      2000,
		NoiseLo:       0.6,
		NoiseHi:       2.4,
		Overlap:       0.35,
	}
}

// Validate reports an error for degenerate configurations.
func (c SynthConfig) Validate() error {
	switch {
	case c.Classes < 2:
		return fmt.Errorf("dataset: need ≥2 classes, got %d", c.Classes)
	case c.Dim < 1:
		return fmt.Errorf("dataset: dim %d must be positive", c.Dim)
	case c.ModesPerClass < 1:
		return fmt.Errorf("dataset: modes per class %d must be positive", c.ModesPerClass)
	case c.TrainSize < 1 || c.TestSize < 1:
		return fmt.Errorf("dataset: sizes %d/%d must be positive", c.TrainSize, c.TestSize)
	case c.NoiseLo < 0 || c.NoiseHi < c.NoiseLo:
		return fmt.Errorf("dataset: noise range [%v,%v] invalid", c.NoiseLo, c.NoiseHi)
	case c.Overlap < 0 || c.Overlap >= 1:
		return fmt.Errorf("dataset: overlap %v outside [0,1)", c.Overlap)
	}
	return nil
}

// SynthCIFAR generates a train and test split from the same class-mode
// geometry. The generator is fully deterministic given seed.
func SynthCIFAR(cfg SynthConfig, seed int64) (train, test *Set, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Class-mode prototypes, scaled so modes are separable but not
	// trivially so relative to the noise range.
	modes := make([][][]float64, cfg.Classes)
	scale := 2.2
	for c := range modes {
		modes[c] = make([][]float64, cfg.ModesPerClass)
		for k := range modes[c] {
			m := make([]float64, cfg.Dim)
			for d := range m {
				m[d] = rng.NormFloat64() * scale / math.Sqrt(float64(cfg.Dim)) * math.Sqrt(float64(cfg.Dim)/8)
			}
			modes[c][k] = m
		}
	}
	gen := func(n int, r *rand.Rand) *Set {
		s := &Set{X: tensor.NewMatrix(n, cfg.Dim), Labels: make([]int, n)}
		for i := 0; i < n; i++ {
			c := r.Intn(cfg.Classes)
			k := r.Intn(cfg.ModesPerClass)
			proto := modes[c][k]
			// Per-sample difficulty: noise scale and wrong-class mixing.
			sigma := cfg.NoiseLo + r.Float64()*(cfg.NoiseHi-cfg.NoiseLo)
			mix := 0.0
			var wrong []float64
			if r.Float64() < cfg.Overlap {
				wc := (c + 1 + r.Intn(cfg.Classes-1)) % cfg.Classes
				wrong = modes[wc][r.Intn(cfg.ModesPerClass)]
				mix = r.Float64() * 0.55
			}
			row := s.X.Row(i)
			for d := range row {
				v := proto[d]
				if wrong != nil {
					v = (1-mix)*proto[d] + mix*wrong[d]
				}
				row[d] = v + r.NormFloat64()*sigma/math.Sqrt(8)
			}
			s.Labels[i] = c
		}
		return s
	}
	train = gen(cfg.TrainSize, rand.New(rand.NewSource(seed+1)))
	test = gen(cfg.TestSize, rand.New(rand.NewSource(seed+2)))
	return train, test, nil
}

// ClassCounts tallies the label histogram; useful in tests and for the
// caching frequency experiments.
func ClassCounts(s *Set, classes int) []int {
	counts := make([]int, classes)
	for _, l := range s.Labels {
		if l >= 0 && l < classes {
			counts[l]++
		}
	}
	return counts
}
