package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestDenseResidualMatchesUnfused pins Dense's residual operand to the
// two passes it replaces in a compiled residual block: Dense without it,
// then Add of the residual, or AddReLU when the block floors. On every
// kernel path at both precisions; at one row and every tile after it, at
// output counts below, inside and past the kernels' column blocks, at
// depths from one input to the trunk's 256; with and without a bias;
// over operands that mix zeros of both signs, subnormals, infinities and
// NaNs. Without the floor every bit must match (a NaN matching any NaN):
// (s + b) + r is r + (s + b). With it the values must be equal under ==,
// the dense kernels' convention: a fused ReLU keeps -0 where AddReLU
// writes +0.
func TestDenseResidualMatchesUnfused(t *testing.T) {
	perType(t,
		func(t *testing.T) { onEachPath(t, testDenseResidualMatchesUnfused[float64]) },
		func(t *testing.T) { onEachPath(t, testDenseResidualMatchesUnfused[float32]) })
}

func testDenseResidualMatchesUnfused[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 17, 33, 65, 256} {
		for _, k := range []int{1, 3, 4, 5, 8, 9, 17, 256} {
			w, bias := specialMatrix[T](rng, k, n), specialMatrix[T](rng, 1, n).Data
			for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 13, 64} {
				a, res := specialMatrix[T](rng, m, k), specialMatrix[T](rng, m, n)
				for _, b := range [][]T{nil, bias} {
					for _, relu := range []bool{false, true} {
						got, want := garbageMatrix[T](rng, m, n), garbageMatrix[T](rng, m, n)
						Dense(got, a, w, b, res, relu)
						Dense(want, a, w, b, nil, false)
						name := fmt.Sprintf("m=%d n=%d k=%d bias=%v relu=%v", m, n, k, b != nil, relu)
						if !relu {
							Add(want, res, want)
							assertBitwise(t, name, got, want)
							continue
						}
						AddReLU(want, res, want)
						for i, v := range want.Data {
							if g := got.Data[i]; g != v && !(g != g && v != v) {
								t.Fatalf("%s element %d: got %v, want %v", name, i, g, v)
							}
						}
					}
				}
			}
		}
	}
}
