package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests pinning the float32 inference kernels against the
// float64 reference path. f32 accumulation (and the FMA micro-kernel's
// fused rounding) legitimately diverges from f64 in the low bits, so
// comparisons use a float32-scale tolerance; what must hold exactly is
// shape discipline and parallel-vs-serial bitwise equality.

// close32 compares an f32 kernel result against its f64 reference with
// a tolerance sized to float32 accumulation error over n terms.
func close32(got float32, want float64, n int) bool {
	diff := math.Abs(float64(got) - want)
	scale := math.Max(math.Abs(want), 1)
	return diff <= 1e-5*scale*math.Sqrt(float64(max(n, 1)))
}

func randMatrix32(rng *rand.Rand, rows, cols int) (*Matrix32, *Matrix) {
	m32 := NewMatrix32(rows, cols)
	m64 := NewMatrix(rows, cols)
	for i := range m32.Data {
		v := float32(rng.NormFloat64())
		m32.Data[i] = v
		m64.Data[i] = float64(v)
	}
	return m32, m64
}

func TestMatMulT32MatchesF64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Shapes straddle the 16-lane SIMD boundary, the 4-row register
	// tile, and degenerate single-row/column cases.
	shapes := [][3]int{ // rows(a), rows(b), cols
		{1, 1, 1}, {1, 3, 5}, {3, 2, 16}, {4, 4, 16}, {5, 7, 17},
		{8, 9, 31}, {8, 9, 32}, {13, 11, 33}, {16, 16, 48}, {2, 64, 100},
	}
	for _, s := range shapes {
		ar, br, n := s[0], s[1], s[2]
		a32, a64 := randMatrix32(rng, ar, n)
		b32, b64 := randMatrix32(rng, br, n)
		got := NewMatrix32(ar, br)
		MatMulT32(got, a32, b32)
		want := refMatMulT(a64, b64)
		for i := 0; i < ar; i++ {
			for j := 0; j < br; j++ {
				if !close32(got.Row(i)[j], want.At(i, j), n) {
					t.Fatalf("MatMulT32 %v: [%d][%d] = %v, want ≈ %v", s, i, j, got.Row(i)[j], want.At(i, j))
				}
			}
		}
	}
}

func TestDot32AndAxpy32(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 7, 16, 33} {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
			want += float64(a[i]) * float64(b[i])
		}
		if got := Dot32(a, b); !close32(got, want, n) {
			t.Fatalf("Dot32 n=%d: %v, want ≈ %v", n, got, want)
		}
		dst := make([]float32, n)
		wantAxpy := make([]float64, n)
		for i := range dst {
			dst[i] = float32(rng.NormFloat64())
			wantAxpy[i] = float64(dst[i]) + 0.5*float64(a[i])
		}
		Axpy32(dst, 0.5, a)
		for i := range dst {
			if !close32(dst[i], wantAxpy[i], 1) {
				t.Fatalf("Axpy32 n=%d: [%d] = %v, want ≈ %v", n, i, dst[i], wantAxpy[i])
			}
		}
	}
}

func TestFusedKernels32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m32, m64 := randMatrix32(rng, 6, 9)
	v32 := make([]float32, 9)
	v64 := make([]float64, 9)
	for i := range v32 {
		v32[i] = float32(rng.NormFloat64())
		v64[i] = float64(v32[i])
	}
	AddRowVectorReLU32(m32, v32)
	want := refAddRowVectorReLU(m64, v64)
	for i, v := range m32.Data {
		if !close32(v, want.Data[i], 1) {
			t.Fatalf("AddRowVectorReLU32 [%d] = %v, want ≈ %v", i, v, want.Data[i])
		}
	}

	a32, a64 := randMatrix32(rng, 4, 5)
	b32, b64 := randMatrix32(rng, 4, 5)
	dst := NewMatrix32(4, 5)
	AddReLU32(dst, a32, b32)
	for i, v := range dst.Data {
		w := math.Max(0, a64.Data[i]+b64.Data[i])
		if !close32(v, w, 1) {
			t.Fatalf("AddReLU32 [%d] = %v, want ≈ %v", i, v, w)
		}
	}
	// dst aliasing b (the frozen residual's in-place add).
	AddReLU32(b32, a32, b32)
	for i, v := range b32.Data {
		if v != dst.Data[i] {
			t.Fatalf("aliased AddReLU32 [%d] = %v, want %v", i, v, dst.Data[i])
		}
	}
}

func TestSoftmax32IntoMatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l32, l64 := randMatrix32(rng, 5, 7)
	got := NewMatrix(5, 7)
	Softmax32Into(got, l32)
	want := NewMatrix(5, 7)
	Softmax(want, l64)
	for i := range got.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-6 {
			t.Fatalf("Softmax32Into [%d] = %v, want ≈ %v (Δ %v)", i, got.Data[i], want.Data[i], d)
		}
	}
	for r := 0; r < 5; r++ {
		var sum float64
		for _, v := range got.Row(r) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", r, sum)
		}
	}
}

func TestWidenNarrowRoundTrip(t *testing.T) {
	src := []float32{0, 1.5, -2.25, 3e-8}
	wide := make([]float64, len(src))
	Widen(wide, src)
	back := make([]float32, len(src))
	Narrow(back, wide)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("Widen/Narrow round trip [%d]: %v != %v", i, back[i], src[i])
		}
	}
}

func TestEnsure32Reuses(t *testing.T) {
	m := NewMatrix32(4, 8)
	base := &m.Data[0]
	got := Ensure32(m, 2, 16)
	if &got.Data[0] != base {
		t.Fatal("Ensure32 reallocated despite sufficient capacity")
	}
	if got.Rows != 2 || got.Cols != 16 {
		t.Fatalf("Ensure32 shape %dx%d", got.Rows, got.Cols)
	}
	grown := Ensure32(got, 10, 10)
	if grown.Rows != 10 || grown.Cols != 10 || len(grown.Data) != 100 {
		t.Fatalf("Ensure32 grow shape %dx%d len %d", grown.Rows, grown.Cols, len(grown.Data))
	}
}
