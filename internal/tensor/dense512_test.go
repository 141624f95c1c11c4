package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDense512MatchesAVX2 pins the 512-bit kernels to the 256-bit ones
// bit for bit, at both precisions: Dense on the avx512 path
// (outer512Tile64, outer512Tile32) against Dense on the avx2 path
// (outerTile64, outerTile32) with no bias, a bias, and a bias and ReLU.
// The row counts cover every tile of one to six rows and the ragged ends
// after them, the output counts a single column, partial and full
// blocks of 8, 16, 32 and 64 and one past them, and the depths one to
// nine and around 32, with the heads' 8 and 12 and the trunk's 256. Operands mix zeros of both
// signs, subnormals, infinities and NaNs of three payloads; the two
// sides start from different garbage, so an output either path leaves
// unwritten fails. A NaN matches any NaN, as in assertBitwise.
func TestDense512MatchesAVX2(t *testing.T) {
	if !cpuAVX512 {
		t.Skip(noAVX512)
	}
	perType(t, testDense512MatchesAVX2[float64], testDense512MatchesAVX2[float32])
}

func testDense512MatchesAVX2[T Float](t *testing.T) {
	defer UseKernelPath("avx512")
	rng := rand.New(rand.NewSource(25))
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 27, 32, 64}
	ns := []int{1, 3, 4, 7, 8, 9, 10, 15, 16, 17, 31, 33, 63, 64, 65, 256, 257}
	ks := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 31, 32, 33, 256}
	both := func(got, want *Mat[T], f func(dst *Mat[T])) {
		UseKernelPath("avx512")
		f(got)
		UseKernelPath("avx2")
		f(want)
	}
	for _, n := range ns {
		for _, k := range ks {
			w := specialMatrix[T](rng, k, n)
			bias := specialMatrix[T](rng, 1, n).Data
			for _, m := range ms {
				a := specialMatrix[T](rng, m, k)
				for _, ep := range []struct {
					name string
					bias []T
					relu bool
				}{{"product", nil, false}, {"bias", bias, false}, {"bias and ReLU", bias, true}} {
					got, want := garbageMatrix[T](rng, m, n), garbageMatrix[T](rng, m, n)
					both(got, want, func(dst *Mat[T]) { Dense(dst, a, w, ep.bias, nil, ep.relu) })
					assertBitwise(t, fmt.Sprintf("Dense %s m=%d n=%d k=%d", ep.name, m, n, k), got, want)
				}
			}
		}
	}
}
