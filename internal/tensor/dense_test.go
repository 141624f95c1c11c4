package tensor

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestDenseMatchesPortable pins Dense to its definition, denseScalar's
// FMA chain, bit for bit, on every kernel path this CPU has (portable,
// avx2, avx512) at both precisions: every row count of one to thirteen
// (each register tile and ragged end) and 31, 32, 64 and 65; every
// output count of one to 33 (partial and full column blocks) and 64 and
// 256; every depth of one to nine and 32 and 256; bias, residual and
// ReLU each on and off (all eight epilogues up to 4k multiply-adds a
// layer, all off and all on up to 16k, all on above). Up to 16k the
// operands mix normal values with zeros of both signs, subnormals,
// infinities and NaNs; above it (where subnormal arithmetic would make
// the sweep take minutes) they are normal values. Under the race
// detector, which slows the Go reference down several times, layers
// above 4k multiply-adds are skipped and all eight epilogues run only up
// to 512. dst starts as garbage. A NaN output must be NaN on both sides
// (assertBitwise has why not the same NaN).
func TestDenseMatchesPortable(t *testing.T) {
	perType(t, testDenseMatchesPortable[float64], testDenseMatchesPortable[float32])
}

func testDenseMatchesPortable[T Float](t *testing.T) {
	defer UseKernelPath(currentPath())
	rng := rand.New(rand.NewSource(35))
	ms := append(upTo(13), 31, 32, 64, 65)
	ns := append(upTo(33), 64, 256)
	ks := append(upTo(9), 32, 256)
	every := 1 << 12 // the most multiply-adds a layer runs all eight epilogues at
	if raceEnabled {
		every = 1 << 9
	}
	operand := func(rows, cols int, special bool) *Mat[T] {
		if special {
			return specialMatrix[T](rng, rows, cols)
		}
		m, _ := randMat[T](rng, rows, cols)
		return m
	}
	for _, n := range ns {
		for _, k := range ks {
			for _, m := range ms {
				size := m * n * k
				small := size <= 1<<14
				if raceEnabled && size > 1<<12 {
					continue
				}
				a, w, res := operand(m, k, small), operand(k, n, small), operand(m, n, small)
				bias := operand(1, n, small).Data
				for ep := 0; ep < 8; ep++ {
					if size > every && ep != 7 && (ep != 0 || !small) {
						continue
					}
					b, r, relu := bias, res, ep&4 != 0
					if ep&1 == 0 {
						b = nil
					}
					if ep&2 == 0 {
						r = nil
					}
					want := garbageMatrix[T](rng, m, n)
					denseScalar(want, a, w, b, r, relu)
					for _, path := range kernelPaths() {
						UseKernelPath(path)
						got := garbageMatrix[T](rng, m, n)
						Dense(got, a, w, b, r, relu)
						assertBitwise(t, fmt.Sprintf("%s m=%d n=%d k=%d bias=%v res=%v relu=%v", path, m, n, k, b != nil, r != nil, relu), got, want)
					}
				}
			}
		}
	}
}

// TestFMA32RoundsOnce pins fma32 to x·y + z computed exactly and rounded
// once to float32. The first case is one that float32(math.FMA(x, y, z))
// rounds twice the wrong way: the exact sum lies 2^-70 below a float32
// midpoint, float64 rounds it onto the midpoint, and the tie goes to the
// even neighbour above. The rest are random operands over float32's
// whole range, subnormals included.
func TestFMA32RoundsOnce(t *testing.T) {
	exact := func(x, y, z float32) float32 {
		p := new(big.Float).SetPrec(2000).Mul(big.NewFloat(float64(x)), big.NewFloat(float64(y)))
		f, _ := p.Add(p, big.NewFloat(float64(z))).Float32()
		return f
	}
	one := float32(1)
	x, y, z := one+0x1p-23, float32(0x1p-24)*(one-0x1p-23), one+0x1p-23
	if want := exact(x, y, z); float32(math.FMA(float64(x), float64(y), float64(z))) == want {
		t.Fatalf("the double-rounding case rounds correctly through float64: %v", want)
	}
	rng := rand.New(rand.NewSource(37))
	draw := func() float32 {
		switch rng.Intn(4) {
		case 0:
			return math.Float32frombits(rng.Uint32() &^ (0xff << 23)) // subnormal
		case 1:
			return float32(rng.NormFloat64())
		}
		v := math.Float32frombits(rng.Uint32())
		if math.IsInf(float64(v), 0) || v != v {
			return 1
		}
		return v
	}
	cases := [][3]float32{{x, y, z}}
	for range 200000 {
		cases = append(cases, [3]float32{draw(), draw(), draw()})
	}
	for _, c := range cases {
		got, want := fma32(c[0], c[1], c[2]), exact(c[0], c[1], c[2])
		if want == 0 && got == 0 { // the sign of an exact zero is float64 addition's
			continue
		}
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fma32(%g, %g, %g) = %g (%#x), want %g (%#x)", c[0], c[1], c[2], got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

// upTo is 1, …, n.
func upTo(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i + 1
	}
	return s
}

// TestDenseAllocs is the dynamic half of //eugene:noalloc on Dense and
// Transpose at both precisions, on every kernel path: they reach their
// float64 and float32 bodies through pointer assertions, which must not
// allocate.
func TestDenseAllocs(t *testing.T) {
	perType(t,
		func(t *testing.T) { onEachPath(t, testDenseAllocs[float64]) },
		func(t *testing.T) { onEachPath(t, testDenseAllocs[float32]) })
}

func testDenseAllocs[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	a, _ := randMat[T](rng, 7, 9)
	w, _ := randMat[T](rng, 9, 13)
	res, _ := randMat[T](rng, 7, 13)
	bias := make([]T, 13)
	dst := New[T](7, 13)
	if avg := testing.AllocsPerRun(20, func() { Dense(dst, a, w, bias, res, true) }); avg != 0 {
		t.Errorf("Dense: %v allocs per call, want 0", avg)
	}
	at := New[T](9, 7)
	if avg := testing.AllocsPerRun(20, func() { Transpose(at, a) }); avg != 0 {
		t.Errorf("Transpose: %v allocs per call, want 0", avg)
	}
}
