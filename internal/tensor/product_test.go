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

// TestProductKernelsMatchPortable pins the training products' kernel to
// its reference bit for bit: MatMul and TMatMul against matMulPortable
// and tMatMulPortable at every row count of the register tile and past
// it, column counts around the 4-lane vector and the 16-column group
// (masked tails included), depths from one term to 256, and one product
// large enough to be split over helpers. The operands mix normal values
// with zeros of both signs, subnormals, infinities and NaNs of three
// payloads, one of them signalling; dst starts as garbage (the same
// garbage on both sides for TMatMul, which adds to it). A NaN output
// must be NaN on both sides (assertBitwise has why not the same NaN).
func TestProductKernelsMatchPortable(t *testing.T) {
	if !hasAVX2FMA {
		t.Skip("no AVX2 kernel in this build or on this CPU: MatMul and TMatMul are the portable loops")
	}
	if portableFuses {
		t.Skip("GOAMD64=v3 or above: the compiler may fuse the portable loops' multiply and add, so they stop being the unfused reference")
	}
	rng := rand.New(rand.NewSource(21))
	for rows := 1; rows <= 7; rows++ {
		for _, cols := range []int{1, 3, 4, 5, 15, 16, 17, 33, 256} {
			for _, k := range []int{1, 2, 3, 20, 33, 256} {
				checkProducts(t, rng, rows, cols, k)
			}
		}
	}
	checkProducts(t, rng, 300, 256, 256) // over two fan-out grains
}

func checkProducts(t *testing.T, rng *rand.Rand, rows, cols, k int) {
	t.Helper()
	a, at, b := specialMatrix(rng, rows, k), specialMatrix(rng, k, rows), specialMatrix(rng, k, cols)
	got, want := garbageMatrix(rng, rows, cols), garbageMatrix(rng, rows, cols)
	MatMul(got, a, b)
	matMulPortable(want, a, b)
	assertBitwise(t, fmt.Sprintf("MatMul %dx%d · %dx%d", rows, k, k, cols), got, want)
	// TMatMul accumulates: both sides add to the same garbage.
	got = garbageMatrix(rng, rows, cols)
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
// outputs stay finite while some meet every special operand.
func specialMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	tame := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-300}
	wild := []float64{math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_0000_0bad), math.Float64frombits(0xfff4_0000_0000_0001)}
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch r := rng.Float64(); {
		case r < 0.2:
			m.Data[i] = tame[rng.Intn(len(tame))]
		case r < 0.2+1/float64(4*rows*cols):
			m.Data[i] = wild[rng.Intn(len(wild))]
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func garbageMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(rng.Uint64())
	}
	return m
}

// assertBitwise compares every element's bits, except that any NaN
// matches any NaN: which of two NaN operands' payloads survives an
// operation is up to the operand order the compiler picks for the
// portable loop, and it picks differently under -race.
func assertBitwise(t *testing.T, op string, got, want *Matrix) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s element %d: kernel %#016x (%v), portable %#016x (%v)", op, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// BenchmarkBackwardProducts is one 256×256 layer's backward products at
// the benchmark's batch of 20 rows — the input gradient MatMul
// (20×256 · 256×256) and the weight gradient TMatMul ((20×256)ᵀ ·
// 20×256) — on the portable loop and on the kernel, in GFLOP/s.
func BenchmarkBackwardProducts(b *testing.B) {
	const rows, width = 20, 256
	rng := rand.New(rand.NewSource(1))
	g, x, w := randMatrix(rng, rows, width), randMatrix(rng, rows, width), randMatrix(rng, width, width)
	gin, gw := NewMatrix(rows, width), NewMatrix(width, width)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"MatMul/portable", func() { matMulPortable(gin, g, w) }},
		{"MatMul/kernel", func() { MatMul(gin, g, w) }},
		{"TMatMul/portable", func() { tMatMulPortable(gw, g, x) }},
		{"TMatMul/kernel", func() { TMatMul(gw, g, x) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
			b.ReportMetric(2*rows*width*width*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
