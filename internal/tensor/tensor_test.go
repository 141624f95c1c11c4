package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewMatrix(2, 2)
	MatMul(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEqual(dst.Data[i], w, 1e-12) {
			t.Fatalf("MatMul[%d] = %v, want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	id := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	dst := NewMatrix(4, 4)
	MatMul(dst, a, id)
	for i := range a.Data {
		if !almostEqual(dst.Data[i], a.Data[i], 1e-12) {
			t.Fatalf("A·I != A at %d: %v vs %v", i, dst.Data[i], a.Data[i])
		}
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 3, 5)
	b := randomMatrix(rng, 4, 5)
	// Build bT explicitly.
	bT := NewMatrix(5, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			bT.Set(c, r, b.At(r, c))
		}
	}
	want := NewMatrix(3, 4)
	MatMul(want, a, bT)
	got := NewMatrix(3, 4)
	MatMulT(got, a, b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-10) {
			t.Fatalf("MatMulT mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTMatMulMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 5, 3)
	b := randomMatrix(rng, 5, 4)
	aT := NewMatrix(3, 5)
	for r := 0; r < 5; r++ {
		for c := 0; c < 3; c++ {
			aT.Set(c, r, a.At(r, c))
		}
	}
	want := NewMatrix(3, 4)
	MatMul(want, aT, b)
	got := NewMatrix(3, 4)
	TMatMul(got, a, b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-10) {
			t.Fatalf("TMatMul mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"mismatched inner", func() { MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2)) }},
		{"bad dst", func() { MatMul(NewMatrix(3, 3), NewMatrix(2, 3), NewMatrix(3, 2)) }},
		{"add mismatch", func() { Add(NewMatrix(2, 2), NewMatrix(2, 2), NewMatrix(2, 3)) }},
		{"from slice", func() { FromSlice(2, 2, []float64{1}) }},
		{"dense inner", func() { Dense(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(4, 2), nil, nil, false) }},
		{"dense dst", func() { Dense(NewMatrix(2, 3), NewMatrix(2, 3), NewMatrix(3, 2), nil, nil, false) }},
		{"dense bias", func() { Dense(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(3, 2), []float64{1}, nil, false) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestAdd(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	dst := NewMatrix(1, 3)
	Add(dst, a, b)
	if dst.Data[2] != 33 {
		t.Fatalf("Add = %v", dst.Data)
	}
}

func TestColSums(t *testing.T) {
	m := FromSlice(3, 2, []float64{1, -2, 1, -2, 1, -2})
	sums := make([]float64, 2)
	ColSums(sums, m)
	if sums[0] != 3 || sums[1] != -6 {
		t.Fatalf("ColSums = %v", sums)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(vals [6]float64) bool {
		src := NewMatrix(2, 3)
		for i, v := range vals {
			// Clamp wild quick-generated values to a sane range.
			src.Data[i] = math.Mod(v, 50)
			if math.IsNaN(src.Data[i]) {
				src.Data[i] = 0
			}
		}
		dst := NewMatrix(2, 3)
		Softmax(dst, src)
		for r := 0; r < 2; r++ {
			var sum float64
			for _, p := range dst.Row(r) {
				if p < 0 || p > 1 || math.IsNaN(p) {
					return false
				}
				sum += p
			}
			if !almostEqual(sum, 1, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxPreservesOrder(t *testing.T) {
	src := FromSlice(1, 4, []float64{0.1, 3.0, -2.0, 1.0})
	dst := NewMatrix(1, 4)
	Softmax(dst, src)
	idx, _ := ArgMax(dst.Row(0))
	if idx != 1 {
		t.Fatalf("argmax of softmax = %d, want 1", idx)
	}
}

func TestSoftmaxStability(t *testing.T) {
	src := FromSlice(1, 3, []float64{1000, 1001, 1002})
	dst := NewMatrix(1, 3)
	Softmax(dst, src)
	var sum float64
	for _, v := range dst.Row(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", dst.Row(0))
		}
		sum += v
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Fatalf("softmax sum = %v", sum)
	}
}

func TestEntropy(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if got := Entropy(uniform); !almostEqual(got, math.Log(4), 1e-12) {
		t.Fatalf("uniform entropy = %v, want log(4)", got)
	}
	if got := Entropy([]float64{1, 0, 0}); got != 0 {
		t.Fatalf("point-mass entropy = %v, want 0", got)
	}
}

func TestEntropyNonNegativeProperty(t *testing.T) {
	f := func(raw [5]float64) bool {
		src := NewMatrix(1, 5)
		for i, v := range raw {
			src.Data[i] = math.Mod(v, 20)
			if math.IsNaN(src.Data[i]) {
				src.Data[i] = 0
			}
		}
		dst := NewMatrix(1, 5)
		Softmax(dst, src)
		h := Entropy(dst.Row(0))
		return h >= -1e-12 && h <= math.Log(5)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestArgMax(t *testing.T) {
	idx, v := ArgMax([]float64{-5, 2, 1})
	if idx != 1 || v != 2 {
		t.Fatalf("ArgMax = (%d, %v)", idx, v)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 64, 64)
	c := randomMatrix(rng, 64, 64)
	dst := NewMatrix(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(dst, a, c)
	}
}

func TestTranspose(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		perType(t, testTranspose[float64], testTranspose[float32])
	})
}

// testTranspose covers shapes under, at and over the kernel's 4×4
// blocks and 8-row strips, with edges of every width.
func testTranspose[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range [][2]int{{0, 3}, {3, 0}, {1, 1}, {3, 9}, {9, 3}, {4, 4}, {7, 5}, {8, 8}, {9, 13}, {12, 4}, {4, 12}, {17, 256}, {256, 20}, {20, 256}, {255, 258}} {
		src, _ := randMat[T](rng, s[0], s[1])
		dst := New[T](s[1], s[0])
		Transpose(dst, src)
		for r := 0; r < src.Rows; r++ {
			for c := 0; c < src.Cols; c++ {
				if dst.At(c, r) != src.At(r, c) {
					t.Fatalf("%dx%d: dst[%d][%d] = %v, want %v", s[0], s[1], c, r, dst.At(c, r), src.At(r, c))
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Transpose into a dst of the wrong shape did not panic")
		}
	}()
	Transpose(New[T](2, 3), New[T](2, 3))
}

// TestSumSquaresByColumn holds every path to the column-major walk in
// Go, bit for bit, over heights under, at and past the kernel's buffers
// and widths with and without a partial strip.
func TestSumSquaresByColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	onEachPath(t, func(t *testing.T) {
		for _, s := range [][2]int{{0, 0}, {1, 1}, {4, 8}, {3, 9}, {8, 7}, {12, 17}, {20, 256}, {256, 256}, {256, 10}, {260, 24}, {300, 16}} {
			m, _ := randMat[float64](rng, s[0], s[1])
			want := 0.5
			for c := 0; c < m.Cols; c++ {
				for r := 0; r < m.Rows; r++ {
					want += float64(m.At(r, c) * m.At(r, c))
				}
			}
			if got := SumSquaresByColumn(0.5, m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%dx%d: %v, want %v", s[0], s[1], got, want)
			}
		}
	})
}
