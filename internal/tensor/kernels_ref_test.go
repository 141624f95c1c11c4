package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests pinning the optimized matmul kernels (the dense
// kernel's fused bias+ReLU, the dot kernel's lanes, the products'
// unrolled loops) against naive triple-loop references over randomized
// shapes, including empty and 1×1 edge cases. Fused multiply-adds and
// lane folds change the rounding, so comparisons allow a small relative
// tolerance; product_test.go and dense_test.go hold the kernels to their
// exact Go definitions.
//
// The references are float64 and stay naive. A kernel that is generic
// over Float is checked at both element types against the same
// reference: operands are drawn at T and the reference runs on their
// exact float64 image, so the only divergence left is the kernel's own
// rounding — for float32 that (and the FMA micro-kernel's fused
// rounding) is legitimately in the low bits, hence a float32-scale
// tolerance there. What must hold exactly is shape discipline, and that
// a row's result does not depend on its batch (batch_test.go).

func refMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func refMatMulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var sum float64
			for k := 0; k < a.Cols; k++ {
				sum += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func refTMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for k := 0; k < a.Rows; k++ {
				sum += a.At(k, i) * b.At(k, j)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

func refReLU(m *Matrix) *Matrix {
	out := m.Clone()
	for i, v := range out.Data {
		out.Data[i] = math.Max(0, v)
	}
	return out
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// perType runs one test body at each element type.
func perType(t *testing.T, f64, f32 func(*testing.T)) {
	t.Run("f64", f64)
	t.Run("f32", f32)
}

// randMat draws a matrix at T and its exact float64 image.
func randMat[T Float](rng *rand.Rand, rows, cols int) (*Mat[T], *Matrix) {
	m := New[T](rows, cols)
	m64 := NewMatrix(rows, cols)
	for i := range m.Data {
		v := T(rng.NormFloat64())
		m.Data[i] = v
		m64.Data[i] = float64(v)
	}
	return m, m64
}

// closeTo compares a kernel result at T against its float64 reference:
// float64 to closeEnough's 1e-9, float32 to a tolerance sized to float32
// accumulation error over n terms.
func closeTo[T Float](got T, want float64, n int) bool {
	tol := 1e-9
	if _, f32 := any(got).(float32); f32 {
		tol = 1e-5 * math.Sqrt(float64(max(n, 1)))
	}
	return math.Abs(float64(got)-want) <= tol*math.Max(math.Abs(want), 1)
}

func assertCloseTo[T Float](t *testing.T, op string, got *Mat[T], want *Matrix, n int) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !closeTo(got.Data[i], want.Data[i], n) {
			t.Fatalf("%s element %d: got %v, want ≈ %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// closeEnough compares with a relative-absolute hybrid tolerance that
// absorbs summation-order differences from the unrolled kernels.
func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(1, scale)
}

func assertMatricesClose(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s shape %dx%d, want %dx%d", op, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if !closeEnough(got.Data[i], want.Data[i]) {
			t.Fatalf("%s element %d: got %v, want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// kernelShapes covers degenerate and unroll-boundary dimensions (the
// 4-way unrolled loops have distinct paths for n%4 ∈ {0,1,2,3}) plus
// randomized sizes.
func kernelShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{0, 0, 0}, {0, 3, 2}, {1, 0, 1}, {2, 3, 0},
		{1, 1, 1}, {1, 4, 1}, {2, 5, 3}, {3, 8, 7},
		{4, 9, 4}, {5, 2, 6}, {7, 16, 5},
	}
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int{rng.Intn(9), rng.Intn(33), rng.Intn(9)})
	}
	return shapes
}

func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range kernelShapes(rng) {
		m, k, n := s[0], s[1], s[2]
		a, b := randMatrix(rng, m, k), randMatrix(rng, k, n)
		got := NewMatrix(m, n)
		MatMul(got, a, b)
		assertMatricesClose(t, "MatMul", got, refMatMul(a, b))
	}
}

func TestDenseMatchesReference(t *testing.T) {
	perType(t, testDenseMatchesReference[float64], testDenseMatchesReference[float32])
}

func testDenseMatchesReference[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// On top of the unroll-boundary shapes: inner widths of the served
	// stem (32) and head bottlenecks (8 and 12), row counts around the
	// 6-row register tile, output counts around the 8- to 64-column
	// blocks (the heads have 10), and single-row/column cases.
	shapes := append(kernelShapes(rng), [][3]int{ // rows(a), inputs, outputs
		{1, 5, 3}, {3, 16, 2}, {4, 16, 4}, {5, 17, 7}, {8, 31, 9},
		{8, 32, 9}, {13, 33, 11}, {16, 48, 16}, {2, 100, 64},
		{32, 256, 10}, {7, 12, 10}, {6, 8, 10}, {64, 32, 256}, {3, 7, 5},
	}...)
	for i := 0; i < 8; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(9), 1 + rng.Intn(70), 1 + rng.Intn(14)})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, a64 := randMat[T](rng, m, k)
		b, b64 := randMat[T](rng, k, n)
		bias, bias64 := randMat[T](rng, 1, n)
		product := refMatMul(a64, b64)
		biased := product.Clone()
		for r := 0; r < m; r++ {
			for c := 0; c < n; c++ {
				biased.Data[r*n+c] += bias64.Data[c]
			}
		}
		got := New[T](m, n)
		Dense(got, a, b, nil, nil, false)
		assertCloseTo(t, fmt.Sprintf("Dense %v, no bias", s), got, product, k)
		Dense(got, a, b, bias.Data, nil, false)
		assertCloseTo(t, fmt.Sprintf("Dense %v, bias", s), got, biased, k)
		Dense(got, a, b, bias.Data, nil, true)
		assertCloseTo(t, fmt.Sprintf("Dense %v, bias and ReLU", s), got, refReLU(biased), k)
	}
}

// TestReLUPropagatesNaN pins NaN in, NaN out on every path that floors at
// zero: the dense kernel's epilogue (VMAXPD returns its second source on
// NaN, so operand order matters there) and the element-wise kernels.
func TestReLUPropagatesNaN(t *testing.T) {
	perType(t, testReLUPropagatesNaN[float64], testReLUPropagatesNaN[float32])
}

func testReLUPropagatesNaN[T Float](t *testing.T) {
	nan := T(math.NaN())
	isNaN := func(v T) bool { return v != v }
	for _, m := range []int{1, 2, 3, 4} {
		a, w := New[T](m, 9), New[T](9, 5)
		for i := range w.Data {
			w.Data[i] = 1
		}
		a.Data[(m-1)*9+8] = nan // last row, in the k tail
		bias := make([]T, 5)
		for _, relu := range []bool{false, true} {
			dst := New[T](m, 5)
			Dense(dst, a, w, bias, nil, relu)
			for i, v := range dst.Data {
				if want := i >= (m-1)*5; isNaN(v) != want {
					t.Fatalf("Dense m=%d relu=%v [%d] = %v, NaN wanted: %v", m, relu, i, v, want)
				}
			}
		}
		bias[2] = nan
		dst := New[T](m, 5)
		a.Data[(m-1)*9+8] = 0
		Dense(dst, a, w, bias, nil, true)
		for i, v := range dst.Data {
			if want := i%5 == 2; isNaN(v) != want {
				t.Fatalf("Dense m=%d, NaN bias [%d] = %v, NaN wanted: %v", m, i, v, want)
			}
		}
	}
	x, zero := New[T](1, 3), New[T](1, 3)
	x.Data[1] = nan
	dst := New[T](1, 3)
	ReLU(dst, x)
	if !isNaN(dst.Data[1]) || dst.Data[0] != 0 {
		t.Fatalf("ReLU(NaN) = %v", dst.Data)
	}
	AddReLU(dst, x, zero)
	if !isNaN(dst.Data[1]) || dst.Data[0] != 0 {
		t.Fatalf("AddReLU(NaN) = %v", dst.Data)
	}
}

func TestTMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range kernelShapes(rng) {
		m, k, n := s[0], s[1], s[2]
		a, b := randMatrix(rng, k, m), randMatrix(rng, k, n)
		got := NewMatrix(m, n)
		TMatMul(got, a, b)
		assertMatricesClose(t, "TMatMul", got, refTMatMul(a, b))
	}
}

func TestFusedKernelsMatchReference(t *testing.T) {
	perType(t, testFusedKernelsMatchReference[float64], testFusedKernelsMatchReference[float32])
}

func testFusedKernelsMatchReference[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, s := range append(kernelShapes(rng), [3]int{6, 0, 9}) {
		rows, cols := s[0], s[2]
		a, a64 := randMat[T](rng, rows, cols)
		b, b64 := randMat[T](rng, rows, cols)
		for i := range a64.Data {
			a64.Data[i] = math.Max(0, a64.Data[i]+b64.Data[i])
		}
		dst := New[T](rows, cols)
		AddReLU(dst, a, b)
		assertCloseTo(t, "AddReLU", dst, a64, 1)
		for i := range b64.Data {
			b64.Data[i] = math.Max(0, b64.Data[i])
		}
		ReLU(dst, b)
		assertCloseTo(t, "ReLU", dst, b64, 1)
		AddReLU(dst, a, b)
		// dst aliasing b (the compiled residual's in-place add).
		AddReLU(b, a, b)
		for i, v := range b.Data {
			if v != dst.Data[i] {
				t.Fatalf("aliased AddReLU [%d] = %v, want %v", i, v, dst.Data[i])
			}
		}
	}
}

func TestDotMatchesReference(t *testing.T) {
	perType(t, testDotMatchesReference[float64], testDotMatchesReference[float32])
}

func testDotMatchesReference[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 16, 33, 100} {
		a, a64 := randMat[T](rng, 1, n)
		b, b64 := randMat[T](rng, 1, n)
		var want float64
		for i := range a64.Data {
			want += a64.Data[i] * b64.Data[i]
		}
		if got := dotUnrolled(a.Data, b.Data); !closeTo(got, want, n) {
			t.Fatalf("dotUnrolled(len %d) = %v, want %v", n, got, want)
		}
	}
}

// TestSoftmaxF32LogitsMatchF64 pins the reduced tier's confidence
// surface: the same logits at float32 give the float64 probabilities to
// float32 precision, and rows still sum to one in float64.
func TestSoftmaxF32LogitsMatchF64(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l32, l64 := randMat[float32](rng, 5, 7)
	got := NewMatrix(5, 7)
	Softmax(got, l32)
	want := NewMatrix(5, 7)
	Softmax(want, l64)
	for i := range got.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-6 {
			t.Fatalf("Softmax(f32 logits) [%d] = %v, want ≈ %v (Δ %v)", i, got.Data[i], want.Data[i], d)
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

func TestConvertRoundTrip(t *testing.T) {
	src := []float32{0, 1.5, -2.25, 3e-8}
	wide := make([]float64, len(src))
	Convert(wide, src)
	back := make([]float32, len(src))
	Narrow(back, wide)
	for i := range src {
		if back[i] != src[i] {
			t.Fatalf("Convert round trip [%d]: %v != %v", i, back[i], src[i])
		}
	}
	// Between slices of one type Convert is a copy: every bit, NaN
	// payloads and -0 included.
	same := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_0000_0bad), math.Inf(-1), 5e-324, 1.5}
	got := make([]float64, len(same))
	Convert(got, same)
	for i := range same {
		if math.Float64bits(got[i]) != math.Float64bits(same[i]) {
			t.Fatalf("same-type Convert [%d]: %#x != %#x", i, math.Float64bits(got[i]), math.Float64bits(same[i]))
		}
	}
	got32 := make([]float32, len(src))
	Convert(got32, src)
	if allocs := testing.AllocsPerRun(10, func() { Convert(got, same); Convert(got32, src) }); allocs != 0 {
		t.Fatalf("same-type Convert allocates %v times", allocs)
	}
	for i := range src {
		if got32[i] != src[i] {
			t.Fatalf("same-type Convert float32 [%d]: %v != %v", i, got32[i], src[i])
		}
	}
}

func TestEnsureReuses(t *testing.T) {
	perType(t, testEnsureReuses[float64], testEnsureReuses[float32])
}

func testEnsureReuses[T Float](t *testing.T) {
	m := New[T](4, 8)
	base := &m.Data[0]
	got := Ensure(m, 2, 16)
	if &got.Data[0] != base {
		t.Fatal("Ensure reallocated despite sufficient capacity")
	}
	if got.Rows != 2 || got.Cols != 16 {
		t.Fatalf("Ensure shape %dx%d", got.Rows, got.Cols)
	}
	grown := Ensure(got, 10, 10)
	if grown.Rows != 10 || grown.Cols != 10 || len(grown.Data) != 100 {
		t.Fatalf("Ensure grow shape %dx%d len %d", grown.Rows, grown.Cols, len(grown.Data))
	}
}

// TestMatMulZeroEntries pins the branchless rewrite: sparse inputs with
// exact-zero entries must produce the same results as the reference
// (the old kernels special-cased aik == 0).
func TestMatMulZeroEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a, b := randMatrix(rng, 6, 8), randMatrix(rng, 8, 5)
	for i := range a.Data {
		if i%3 == 0 {
			a.Data[i] = 0
		}
	}
	got := NewMatrix(6, 5)
	MatMul(got, a, b)
	assertMatricesClose(t, "MatMul/sparse", got, refMatMul(a, b))
	Dense(got, a, b, nil, nil, false)
	assertMatricesClose(t, "Dense/sparse", got, refMatMul(a, b))
	c := randMatrix(rng, 6, 5)
	gotT := NewMatrix(8, 5)
	TMatMul(gotT, a, c)
	assertMatricesClose(t, "TMatMul/sparse", gotT, refTMatMul(a, c))
}

// BenchmarkFusedKernels times the element-wise kernels a compiled
// forward pass can still run as passes of their own, at the serving
// shape (a MaxBatch group at hidden 256) and both element types: ReLU
// with no op before it, AddReLU for a residual whose body does not end
// in a Dense, and Softmax, the only one of them on the staged models'
// serving path (their residual sums are in the dense epilogue). Their
// inputs are fixed and mixed-sign, so a kernel that branched on an
// element's sign would pay for it on every iteration, as it does on real
// pre-activations.
func BenchmarkFusedKernels(b *testing.B) {
	b.Run("f64", benchFusedKernels[float64])
	b.Run("f32", benchFusedKernels[float32])
}

func benchFusedKernels[T Float](b *testing.B) {
	const rows, cols = 64, 256
	rng := rand.New(rand.NewSource(1))
	m, _ := randMat[T](rng, rows, cols)
	a, _ := randMat[T](rng, rows, cols)
	dst, probs := New[T](rows, cols), NewMatrix(rows, cols)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"ReLU", func() { ReLU(dst, m) }},
		{"AddReLU", func() { AddReLU(dst, m, a) }},
		{"Softmax", func() { Softmax(probs, a) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}

// BenchmarkDenseRows is the dense product at every group size the
// scheduler can form against 256×256 weights, in GFLOP/s, on each kernel
// path: full 6-row register tiles, ragged ones, and the one-to-five-row
// groups of single-sample traffic.
func BenchmarkDenseRows(b *testing.B) {
	rows := []int{1, 2, 3, 4, 5, 6, 7, 8, 27, 30, 32, 61, 64}
	b.Run("f64", func(b *testing.B) { onEachPath(b, func(b *testing.B) { benchDense[float64](b, rows, false) }) })
	b.Run("f32", func(b *testing.B) { onEachPath(b, func(b *testing.B) { benchDense[float32](b, rows, false) }) })
}

// BenchmarkDenseOp is the whole op of the compiled forward pass, product
// plus bias plus ReLU, at the two group sizes the benchmark's batches
// form, on each kernel path. The pre-activations are recomputed from
// mixed-sign operands on every iteration, which is what an epilogue that
// branches on their sign cannot hide from.
func BenchmarkDenseOp(b *testing.B) {
	b.Run("f64", func(b *testing.B) { onEachPath(b, func(b *testing.B) { benchDense[float64](b, []int{32, 64}, true) }) })
	b.Run("f32", func(b *testing.B) { onEachPath(b, func(b *testing.B) { benchDense[float32](b, []int{32, 64}, true) }) })
}

func benchDense[T Float](b *testing.B, rowCounts []int, epilogue bool) {
	const n, k = 256, 256
	rng := rand.New(rand.NewSource(1))
	w, _ := randMat[T](rng, k, n)
	var bias []T
	if epilogue {
		v, _ := randMat[T](rng, 1, n)
		bias = v.Data
	}
	for _, rows := range rowCounts {
		x, _ := randMat[T](rng, rows, k)
		dst := New[T](rows, n)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Dense(dst, x, w, bias, nil, epilogue)
			}
			b.ReportMetric(2*float64(rows*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
