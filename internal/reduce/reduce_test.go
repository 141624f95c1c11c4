package reduce

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"eugene/internal/nn"
	"eugene/internal/tensor"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, 7, 5)
	// Zero some entries.
	for i := 0; i < len(m.Data); i += 3 {
		m.Data[i] = 0
	}
	c := FromDense(m, 0)
	back := c.ToDense()
	for i := range m.Data {
		if back.Data[i] != m.Data[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

// TestCSRMatVecMatchesDense is the core correctness property, checked
// over random matrices and sparsity levels.
func TestCSRMatVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(20)
		cols := 2 + rng.Intn(20)
		m := randomMatrix(rng, rows, cols)
		eps := rng.Float64()
		c := FromDense(m, eps)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		// Dense reference over the thresholded matrix.
		th := m.Clone()
		for i, v := range th.Data {
			if math.Abs(v) <= eps {
				th.Data[i] = 0
			}
		}
		DenseMatVec(want, th, x)
		got := make([]float64, rows)
		c.MatVec(got, x)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSparsity(t *testing.T) {
	m := tensor.NewMatrix(4, 4)
	m.Set(0, 0, 5)
	m.Set(3, 3, -5)
	c := FromDense(m, 0)
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d", c.NNZ())
	}
	if got := c.Sparsity(); math.Abs(got-14.0/16) > 1e-12 {
		t.Fatalf("sparsity = %v", got)
	}
}

func TestMagnitudeThreshold(t *testing.T) {
	m := tensor.FromSlice(1, 4, []float64{0.1, -0.2, 0.3, -0.4})
	th, err := MagnitudeThreshold(m, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	c := FromDense(m, th)
	if c.NNZ() != 2 {
		t.Fatalf("50%% prune kept %d of 4", c.NNZ())
	}
	// The two largest magnitudes must survive.
	d := c.ToDense()
	if d.Data[2] != 0.3 || d.Data[3] != -0.4 {
		t.Fatalf("wrong survivors: %v", d.Data)
	}
	if _, err := MagnitudeThreshold(m, 1.0); err == nil {
		t.Fatal("expected sparsity-range error")
	}
	th0, _ := MagnitudeThreshold(m, 0)
	if th0 != 0 {
		t.Fatalf("zero sparsity threshold = %v", th0)
	}
}

func TestEdgePrune(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := nn.NewDense(rng, 32, 32)
	c, err := EdgePrune(d, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Sparsity()
	if got < 0.75 || got > 0.85 {
		t.Fatalf("sparsity = %v, want ≈0.8", got)
	}
	rep := EdgeReport(d, c)
	if rep.ParamsBefore != 32*32+32 {
		t.Fatalf("params before = %d", rep.ParamsBefore)
	}
	// CSR at 80% sparsity stores ~2·0.2·1024 + 33 + 32 ≈ 475 words:
	// storage does NOT shrink 5×, illustrating the paper's overhead
	// point.
	if rep.StorageRatio < 0.2 || rep.StorageRatio > 0.6 {
		t.Fatalf("storage ratio = %v", rep.StorageRatio)
	}
}

func TestNodeScoreAndPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d1 := nn.NewDense(rng, 6, 8)
	d2 := nn.NewDense(rng, 8, 4)
	// Make hidden unit 5 overwhelmingly important and unit 2 dead.
	for c := 0; c < 6; c++ {
		d1.W.Set(c, 5, 10)
		d1.W.Set(c, 2, 0)
	}
	for r := 0; r < 4; r++ {
		d2.W.Set(2, r, 0)
	}
	scores, err := NodeScore(d1.W, d2.W)
	if err != nil {
		t.Fatal(err)
	}
	maxIdx, _ := tensor.ArgMax(scores)
	if maxIdx != 5 {
		t.Fatalf("most important unit = %d, want 5", maxIdx)
	}
	n1, n2, kept, err := NodePrune(d1, d2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n1.Out != 4 || n2.In != 4 {
		t.Fatalf("pruned dims %d/%d", n1.Out, n2.In)
	}
	foundFive, foundTwo := false, false
	for _, h := range kept {
		if h == 5 {
			foundFive = true
		}
		if h == 2 {
			foundTwo = true
		}
	}
	if !foundFive || foundTwo {
		t.Fatalf("kept %v: must keep 5 and drop 2", kept)
	}
	rep := NodeReport(d1, d2, n1, n2)
	if rep.ParamsAfter >= rep.ParamsBefore {
		t.Fatalf("node pruning did not shrink: %+v", rep)
	}
}

// TestNodePrunePreservesKeptComputation: for inputs that only excite
// kept units, the pruned pair computes identical outputs (up to the
// dropped units' bias contributions, which we zero here).
func TestNodePrunePreservesKeptComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d1 := nn.NewDense(rng, 5, 10)
	d2 := nn.NewDense(rng, 10, 3)
	for i := range d1.B {
		d1.B[i] = 0
	}
	// Zero out the bottom half of hidden units entirely.
	for h := 0; h < 5; h++ {
		for c := 0; c < 5; c++ {
			d1.W.Set(c, h, 0)
		}
		for r := 0; r < 3; r++ {
			d2.W.Set(h, r, 0)
		}
	}
	n1, n2, _, err := NodePrune(d1, d2, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewMatrix(1, 5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	// Full path (no activation for exactness).
	h := d1.Forward(x, false)
	full := d2.Forward(h.Clone(), false).Clone()
	hp := n1.Forward(x, false)
	pruned := n2.Forward(hp.Clone(), false)
	for i := range full.Data {
		if math.Abs(full.Data[i]-pruned.Data[i]) > 1e-9 {
			t.Fatalf("output %d differs: %v vs %v", i, full.Data[i], pruned.Data[i])
		}
	}
}

func TestNodePruneErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d1 := nn.NewDense(rng, 4, 6)
	d2 := nn.NewDense(rng, 6, 2)
	if _, _, _, err := NodePrune(d1, d2, 0); err == nil {
		t.Fatal("expected keep-range error")
	}
	if _, _, _, err := NodePrune(d1, d2, 7); err == nil {
		t.Fatal("expected keep-range error")
	}
	bad := nn.NewDense(rng, 5, 2)
	if _, _, _, err := NodePrune(d1, bad, 2); err == nil {
		t.Fatal("expected chain error")
	}
	if _, err := NodeScore(d1.W, bad.W); err == nil {
		t.Fatal("expected score dim error")
	}
}

// BenchmarkSparseVsDenseMatVec quantifies the paper's sparse-overhead
// claim: run with -bench to compare.
func BenchmarkSparseVsDenseMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const n = 256
	m := randomMatrix(rng, n, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, n)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DenseMatVec(dst, m, x)
		}
	})
	for _, sp := range []float64{0.5, 0.8, 0.95} {
		th, _ := MagnitudeThreshold(m, sp)
		c := FromDense(m, th)
		b.Run("sparse"+sparsityLabel(sp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MatVec(dst, x)
			}
		})
	}
}

func sparsityLabel(sp float64) string {
	switch sp {
	case 0.5:
		return "50"
	case 0.8:
		return "80"
	case 0.95:
		return "95"
	default:
		return "x"
	}
}
