package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneEdges are the inputs where an exp or log lane could part from the
// scalar call: zeros of both signs, subnormals and the normal boundary,
// NaNs (quiet, signalling, negative), ±Inf, exp's overflow threshold
// 7.09782712893384e+02 and its neighbours, the inputs around exp's last
// normal result (≈ −708.4) and its last nonzero one (≈ −745.1), inputs
// whose x·log₂e is an exact half (the rounding to nearest even), √2/2
// times powers of two (the one f1 the log's comparison can tie on), and
// 1e-12, the entropy floor, with its neighbours.
func laneEdges() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1023, -0x1p-1023,
		0x1p-1022, -0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000001),
		math.Inf(1), math.Inf(-1), 1, -1, 0.5, 2, 1e300, -1e300,
		math.Sqrt2 / 2, math.Sqrt2, 1e-12, logFloorInput,
	}
	around := func(x float64, steps int) {
		up, down := x, x
		for i := 0; i < steps; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			xs = append(xs, up, down)
		}
		xs = append(xs, x)
	}
	around(7.09782712893384e+02, 4)
	around(709.7, 2)
	around(710, 2)
	around(-708.3964185322641, 4) // log of the smallest normal
	around(-708.4, 2)
	around(-709.1, 2)
	around(-745.1332191019411, 4) // log of the smallest subnormal
	around(-745.2, 2)
	around(-1500, 1)
	around(1e-12, 8)
	around(math.Sqrt2/2, 2)
	for k := -1074; k <= 1023; k += 7 {
		xs = append(xs, math.Ldexp(math.Sqrt2/2, k), math.Ldexp(1, k))
	}
	// x·log₂e exactly h + ½: search the neighbours of (h + ½)/log₂e.
	for h := -1100; h <= 1100; h += 3 {
		x := (float64(h) + 0.5) / math.Log2E
		for i := 0; i < 16; i++ {
			if x*math.Log2E == float64(h)+0.5 {
				around(x, 1)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	return xs
}

// logFloorInput is a probability just under the entropy floor.
const logFloorInput = 9.999999999999999e-13

// laneInputs mixes laneEdges with random inputs of every scale: uniform
// over exp's whole range, small negatives (softmax's inputs),
// probabilities, and random bit patterns.
func laneInputs(rng *rand.Rand, n int) []float64 {
	edges := laneEdges()
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(5) {
		case 0:
			xs[i] = edges[rng.Intn(len(edges))]
		case 1:
			xs[i] = (rng.Float64()*2 - 1) * 760
		case 2:
			xs[i] = -rng.ExpFloat64() * 8
		case 3:
			xs[i] = rng.Float64()
		default:
			xs[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return xs
}

// checkExpLog runs expInPlace and LogFloor (at the plain log's floor,
// the entropy's and a few others) over xs on the current path and
// compares every output's bits with math.Exp's and math.Log's. Each
// call starts at every offset of the first lanes, so every element
// meets every lane position and tail length.
func checkExpLog(t *testing.T, xs []float64) {
	t.Helper()
	for off := 0; off < 9 && off < len(xs); off++ {
		in := xs[off:]
		got := append([]float64(nil), in...)
		expInPlace(got)
		for i, x := range in {
			if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s path: exp(%v = %#x) = %v (%#x), math.Exp gives %v (%#x)", currentPath(), x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
		for _, floor := range []float64{math.Inf(-1), 1e-12, 0, 5e-324, 0.25, math.NaN()} {
			for _, inPlace := range []bool{false, true} {
				got := make([]float64, len(in))
				if inPlace {
					copy(got, in)
					LogFloor(got, got, floor)
				} else {
					LogFloor(got, in, floor)
				}
				for i, x := range in {
					if want := math.Log(math.Max(x, floor)); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("%s path, floor %v, in place %v: log(max(%v = %#x, floor)) = %v (%#x), math.Log gives %v (%#x)", currentPath(), floor, inPlace, x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestExpLogLanesMatchMath holds the exp and log lanes to math.Exp and
// math.Log bit for bit on every kernel path: every edge of laneEdges,
// and random inputs in blocks of every length from one to 130 (a tail
// of every width, and a call that spans three lane blocks).
func TestExpLogLanesMatchMath(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		checkExpLog(t, laneEdges())
		rng := rand.New(rand.NewSource(12))
		for n := 1; n <= 130; n++ {
			checkExpLog(t, laneInputs(rng, n))
		}
	})
}

// softmaxScalar is Softmax as one loop per row, math.Exp per element:
// the definition every path must give bit for bit.
func softmaxScalar[T Float](dst *Matrix, src *Mat[T]) {
	for r := 0; r < src.Rows; r++ {
		in, out := src.Row(r), dst.Row(r)
		maxv := in[0]
		for _, v := range in[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for c, v := range in {
			e := math.Exp(float64(v - maxv))
			out[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range out {
			out[c] *= inv
		}
	}
}

// TestSoftmaxRowsMatchScalar holds Softmax to softmaxScalar bit for bit
// on every kernel path at both element types, for every shape of one to
// 67 rows and one to 17 classes (so every lane tail), on logits of
// every spread: mild, wide enough that some exponentials go denormal or
// to zero, and rows carrying ±Inf and NaN (whose NaN outputs need only
// be NaN: assertBitwise has why).
func TestSoftmaxRowsMatchScalar(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		perType(t, testSoftmaxRowsMatchScalar[float64], testSoftmaxRowsMatchScalar[float32])
	})
}

func testSoftmaxRowsMatchScalar[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -800}
	for rows := 1; rows <= 67; rows++ {
		for cols := 1; cols <= 17; cols++ {
			src := New[T](rows, cols)
			for r := 0; r < rows; r++ {
				scale := []float64{1, 30, 400}[r%3]
				for c := range src.Row(r) {
					v := scale * rng.NormFloat64()
					if r%11 == 10 && rng.Intn(4) == 0 {
						v = specials[rng.Intn(len(specials))]
					}
					src.Row(r)[c] = T(v)
				}
			}
			got, want := NewMatrix(rows, cols), NewMatrix(rows, cols)
			Softmax(got, src)
			softmaxScalar(want, src)
			assertBitwise(t, fmt.Sprintf("%d×%d Softmax", rows, cols), got, want)
		}
	}
}

// FuzzExpLogLanes feeds arbitrary bytes, eight to a float64, through the
// exp and log lanes on every kernel path and compares every output's
// bits with math.Exp's and math.Log's. The seeds are laneEdges.
func FuzzExpLogLanes(f *testing.F) {
	edges := laneEdges()
	for i := 0; i < len(edges); i += 13 {
		f.Add(floatBytes(edges[i:min(i+13, len(edges))]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		defer UseKernelPath(currentPath())
		for _, path := range kernelPaths() {
			UseKernelPath(path)
			checkExpLog(t, xs)
		}
	})
}

func floatBytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BenchmarkSoftmaxRows times Softmax over a 64-row batch of 10 classes,
// the served heads' and the Eq. 4 scale fit's shape, at both element
// types on every kernel path.
func BenchmarkSoftmaxRows(b *testing.B) {
	onEachPath(b, func(b *testing.B) {
		for _, typ := range []string{"f64", "f32"} {
			b.Run(typ, func(b *testing.B) {
				rng := rand.New(rand.NewSource(14))
				dst := NewMatrix(64, 10)
				l32, l64 := randMat[float32](rng, 64, 10)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if typ == "f64" {
						Softmax(dst, l64)
					} else {
						Softmax(dst, l32)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst.Data)), "ns/elem")
			})
		}
	})
}
