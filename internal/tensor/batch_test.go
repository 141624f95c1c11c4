package tensor

import (
	"math/rand"
	"testing"
)

// TestDenseIsBatchInvariant pins the property the scheduler leans on: a
// row's outputs are the same bits however many rows were multiplied with
// it and wherever among them it sat. Dense over rows [0, m) must equal m
// one-row calls exactly, at every row count around the register tile, at
// ragged output counts and inner widths, with and without the epilogue,
// in both precisions, on each kernel path the CPU has (the 256-bit and
// 512-bit kernels) — and in every build: CI runs this under -tags noasm
// too, and the scalar path is the only one off amd64. The row counts
// take every register tile of one to six rows and ragged ends, the
// output counts partial blocks of every kernel's width.
func TestDenseIsBatchInvariant(t *testing.T) {
	perType(t,
		func(t *testing.T) { onEachPath(t, testDenseIsBatchInvariant[float64]) },
		func(t *testing.T) { onEachPath(t, testDenseIsBatchInvariant[float32]) })
}

func testDenseIsBatchInvariant[T Float](t *testing.T) {
	type shape struct{ m, n, k int }
	var shapes []shape
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 27, 61} {
		shapes = append(shapes, shape{m, 256, 256}, shape{m, 10, 12})
	}
	// Odd shapes: tile-aligned and ragged rows, a wide batch with few
	// outputs, odd everything, a 16-lane f32 block with a scalar tail.
	shapes = append(shapes, shape{64, 96, 128}, shape{61, 96, 128}, shape{128, 40, 64}, shape{9, 257, 129}, shape{64, 64, 48})
	for _, s := range shapes {
		rng := rand.New(rand.NewSource(int64(31 + s.m)))
		x, _ := randMat[T](rng, s.m, s.k)
		weights, _ := randMat[T](rng, s.k, s.n)
		bias := make([]T, s.n)
		for j := range bias {
			bias[j] = T(j%5) - 2
		}
		for _, ep := range []struct {
			name string
			bias []T
			relu bool
		}{{"product", nil, false}, {"bias", bias, false}, {"bias and ReLU", bias, true}} {
			batched := New[T](s.m, s.n)
			Dense(batched, x, weights, ep.bias, nil, ep.relu)
			alone := New[T](1, s.n)
			for i := 0; i < s.m; i++ {
				Dense(alone, &Mat[T]{Rows: 1, Cols: s.k, Data: x.Row(i)}, weights, ep.bias, nil, ep.relu)
				for j, v := range alone.Data {
					if got := batched.At(i, j); got != v {
						t.Fatalf("%s %v: dst[%d][%d] = %v in the batch, %v alone", ep.name, s, i, j, got, v)
					}
				}
			}
		}
	}
}
