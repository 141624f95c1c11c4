package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// portableFuses is set where the compiler may contract the portable
// loops' dst[i] += alpha*src[i] into one FMA (fuse_v3_test.go).
var portableFuses bool

// TestProductKernelsMatchPortable pins the training products' kernels to
// their reference bit for bit, on each path the CPU has (prodTile64 and
// prod512Tile64): MatMul and TMatMul against matMulPortable and
// tMatMulPortable at every row count of the register tile and past it,
// column counts around the 4- and 8-lane vectors and the 16- and
// 32-column groups (masked tails included), depths from one term to 256,
// and one product of 300 rows. The operands
// mix normal values with zeros of both signs, subnormals, infinities and
// NaNs of three payloads, one of them signalling; dst starts as garbage
// (the same garbage on both sides for TMatMul, which adds to it). A NaN
// output must be NaN on both sides (assertBitwise has why not the same
// NaN).
func TestProductKernelsMatchPortable(t *testing.T) {
	if !cpuAVX2 {
		t.Skip("no AVX2 kernel in this build or on this CPU: MatMul and TMatMul are the portable loops")
	}
	if portableFuses {
		t.Skip("GOAMD64=v3 or above: the compiler may fuse the portable loops' multiply and add, so they stop being the unfused reference")
	}
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for rows := 1; rows <= 7; rows++ {
			for _, cols := range []int{1, 3, 4, 5, 8, 9, 15, 16, 17, 20, 24, 25, 31, 32, 33, 52, 63, 256} {
				for _, k := range []int{1, 2, 3, 20, 33, 256} {
					checkProducts(t, rng, rows, cols, k)
				}
			}
		}
		checkProducts(t, rng, 300, 256, 256) // a training-sized batch, many tiles
	})
}

func checkProducts(t *testing.T, rng *rand.Rand, rows, cols, k int) {
	t.Helper()
	a, at, b := specialMatrix[float64](rng, rows, k), specialMatrix[float64](rng, k, rows), specialMatrix[float64](rng, k, cols)
	got, want := garbageMatrix[float64](rng, rows, cols), garbageMatrix[float64](rng, rows, cols)
	MatMul(got, a, b)
	matMulPortable(want, a, b)
	assertBitwise(t, fmt.Sprintf("MatMul %dx%d · %dx%d", rows, k, k, cols), got, want)
	// TMatMul accumulates: both sides add to the same garbage.
	got = garbageMatrix[float64](rng, rows, cols)
	want = got.Clone()
	TMatMul(got, at, b)
	tMatMulPortable(want, at, b)
	assertBitwise(t, fmt.Sprintf("TMatMul (%dx%d)ᵀ · %dx%d", k, rows, k, cols), got, want)
}

// TestTMatMulAddsLikeScratch pins TMatMul's accumulation to what the
// backward pass did before it accumulated in place: the product into a
// zeroed scratch, then dst += 1·scratch. It holds bit for bit on every
// path, the portable one included, at the training shapes' tile and
// column tails.
func TestTMatMulAddsLikeScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, s := range [][3]int{{20, 256, 256}, {20, 13, 40}, {7, 5, 17}, {1, 3, 300}} {
		k, rows, cols := s[0], s[1], s[2]
		a, b := randMatrix(rng, k, rows), randMatrix(rng, k, cols)
		got := randMatrix(rng, rows, cols)
		want, scratch := got.Clone(), NewMatrix(rows, cols)
		TMatMul(got, a, b)
		TMatMul(scratch, a, b)
		for i, v := range scratch.Data {
			want.Data[i] += 1 * v
		}
		assertBitwise(t, fmt.Sprintf("TMatMul (%dx%d)ᵀ · %dx%d", k, rows, k, cols), got, want)
	}
}

// specialMatrix draws normal values, with one entry in five a signed zero
// or a subnormal and about one in 4k an infinity or a NaN, so that most
// outputs stay finite while some meet every special operand. The
// subnormals and NaN payloads are T's own: three NaNs, one of them
// signalling.
func specialMatrix[T Float](rng *rand.Rand, rows, cols int) *Mat[T] {
	var tame, wild []T
	switch p := any(&tame).(type) {
	case *[]float64:
		*p = []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-300}
		wild = any([]float64{math.Inf(1), math.Inf(-1), math.NaN(),
			math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0xfff4_0000_0000_0001)}).([]T)
	case *[]float32:
		*p = []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -3e-39, 1e-37}
		wild = any([]float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
			math.Float32frombits(0x7fc0_0bad), math.Float32frombits(0xff80_0001)}).([]T)
	}
	m := New[T](rows, cols)
	for i := range m.Data {
		switch r := rng.Float64(); {
		case r < 0.2:
			m.Data[i] = tame[rng.Intn(len(tame))]
		case r < 0.2+1/float64(4*rows*cols):
			m.Data[i] = wild[rng.Intn(len(wild))]
		default:
			m.Data[i] = T(rng.NormFloat64())
		}
	}
	return m
}

// garbageMatrix fills a matrix with random bits.
func garbageMatrix[T Float](rng *rand.Rand, rows, cols int) *Mat[T] {
	m := New[T](rows, cols)
	for i := range m.Data {
		switch p := any(&m.Data[i]).(type) {
		case *float64:
			*p = math.Float64frombits(rng.Uint64())
		case *float32:
			*p = math.Float32frombits(uint32(rng.Uint64()))
		}
	}
	return m
}

// assertBitwise compares every element's bits, except that any NaN
// matches any NaN: which of two NaN operands' payloads survives an
// operation is up to the operand order the compiler picks for the
// portable loop, and it picks differently under -race.
func assertBitwise[T Float](t *testing.T, op string, got, want *Mat[T]) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if bitsOf(g) != bitsOf(w) && !(g != g && w != w) {
			t.Fatalf("%s element %d: got %#x (%v), want %#x (%v)", op, i, bitsOf(g), g, bitsOf(w), w)
		}
	}
}

func bitsOf[T Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

// BenchmarkBackwardProducts is one 256×256 layer's backward products at
// the benchmark's batch of 20 rows — the input gradient MatMul
// (20×256 · 256×256) and the weight gradient TMatMul ((20×256)ᵀ ·
// 20×256) — on the portable loop and on each kernel path, in GFLOP/s.
func BenchmarkBackwardProducts(b *testing.B) {
	const rows, width = 20, 256
	rng := rand.New(rand.NewSource(1))
	g, x, w := randMatrix(rng, rows, width), randMatrix(rng, rows, width), randMatrix(rng, width, width)
	gin, gw := NewMatrix(rows, width), NewMatrix(width, width)
	run := func(b *testing.B, f func()) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(2*rows*width*width*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	}
	matMul, tMatMul := func() { MatMul(gin, g, w) }, func() { TMatMul(gw, g, x) }
	b.Run("MatMul/portable", func(b *testing.B) { run(b, func() { matMulPortable(gin, g, w) }) })
	b.Run("MatMul/kernel", func(b *testing.B) { onEachPath(b, func(b *testing.B) { run(b, matMul) }) })
	b.Run("TMatMul/portable", func(b *testing.B) { run(b, func() { tMatMulPortable(gw, g, x) }) })
	b.Run("TMatMul/kernel", func(b *testing.B) { onEachPath(b, func(b *testing.B) { run(b, tMatMul) }) })
}

// gemmOperands returns a rows×k and an n×k operand pair in both
// precisions, holding the same values.
func gemmOperands(seed int64, rows, n, k int) (a, b *Matrix, a32, b32 *Matrix32) {
	rng := rand.New(rand.NewSource(seed))
	a32, a = randMat[float32](rng, rows, k)
	b32, b = randMat[float32](rng, n, k)
	return a, b, a32, b32
}

// TestMatMulTAllocs is the dynamic half of //eugene:noalloc on MatMulT
// and MatMulT32 for a large product (1024 × 256 × 256), which runs on
// its caller and allocates nothing.
func TestMatMulTAllocs(t *testing.T) {
	const m, n, k = 1024, 256, 256
	a, b, a32, b32 := gemmOperands(23, m, n, k)
	dst, dst32 := NewMatrix(m, n), NewMatrix32(m, n)
	if avg := testing.AllocsPerRun(20, func() { MatMulT(dst, a, b) }); avg != 0 {
		t.Errorf("MatMulT: %v allocs per product, want 0", avg)
	}
	if avg := testing.AllocsPerRun(20, func() { MatMulT32(dst32, a32, b32) }); avg != 0 {
		t.Errorf("MatMulT32: %v allocs per product, want 0", avg)
	}
}
