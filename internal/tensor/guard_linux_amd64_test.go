package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestDenseKernelsStayInRows holds the dense kernels to simd_amd64.s's
// promise that no load or store touches a byte past a row's end: a, the
// weights (so their last row k-1), the bias, the residual and dst each
// end exactly where a PROT_NONE page begins, so a kernel that reads or
// writes one element too far faults. At depths from one input to 33, at
// row counts that take every tile size of one to six rows and a ragged
// one after a full tile, and at output counts that take partial and full
// column blocks of every kernel (8 and 32 float64, 16 and 64 float32)
// and one past them, on each kernel path the CPU has; each result must
// also equal the same layer on ordinary memory.
func TestDenseKernelsStayInRows(t *testing.T) {
	perType(t,
		func(t *testing.T) { onEachPath(t, testDenseKernelsStayInRows[float64]) },
		func(t *testing.T) { onEachPath(t, testDenseKernelsStayInRows[float32]) })
}

func testDenseKernelsStayInRows[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	aMem, wMem, biasMem, resMem, dstMem := guarded[T](t), guarded[T](t), guarded[T](t), guarded[T](t), guarded[T](t)
	for k := 1; k <= 33; k++ {
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7} {
			for _, n := range []int{1, 3, 8, 9, 13, 16, 17, 31, 32, 33, 63, 64, 65} {
				a, w, bias := specialMatrix[T](rng, m, k), specialMatrix[T](rng, k, n), specialMatrix[T](rng, 1, n).Data
				ga := &Mat[T]{Rows: m, Cols: k, Data: atEnd(aMem, m*k)}
				gw := &Mat[T]{Rows: k, Cols: n, Data: atEnd(wMem, k*n)}
				gbias := atEnd(biasMem, n)
				copy(ga.Data, a.Data)
				copy(gw.Data, w.Data)
				copy(gbias, bias)
				res := specialMatrix[T](rng, m, n)
				gres := &Mat[T]{Rows: m, Cols: n, Data: atEnd(resMem, m*n)}
				copy(gres.Data, res.Data)
				for _, relu := range []bool{false, true} {
					for _, r := range []struct{ guarded, plain *Mat[T] }{{nil, nil}, {gres, res}} {
						got := &Mat[T]{Rows: m, Cols: n, Data: atEnd(dstMem, m*n)}
						want := New[T](m, n)
						Dense(got, ga, gw, gbias, r.guarded, relu)
						Dense(want, a, w, bias, r.plain, relu)
						assertBitwise(t, fmt.Sprintf("m=%d n=%d k=%d relu=%v residual=%v", m, n, k, relu, r.plain != nil), got, want)
					}
				}
			}
		}
	}
}

// guarded maps guardedBytes of T followed by a PROT_NONE page, unmapped
// when the test ends.
func guarded[T Float](t *testing.T) []T {
	t.Helper()
	page := syscall.Getpagesize()
	data := (guardedBytes + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), data/int(unsafe.Sizeof(zero)))
}

// guardedBytes holds the largest operand above: 33×65 float64 weights.
const guardedBytes = 33 * 65 * 8

// atEnd is the last n elements of mem: they end at the guard page.
func atEnd[T Float](mem []T, n int) []T { return mem[len(mem)-n:] }

// TestTrainingKernelsStayInRows is TestDenseKernelsStayInRows for the
// kernels training runs besides Dense: MatMul's product kernel (with
// its narrow last column groups of 1–8, 9–16 and 17–24 float64), the
// transpose kernel and the clip norm's column walk, whose prefetches
// run past the matrix and must not fault. Every operand ends at a
// PROT_NONE page, and each result must equal the one on ordinary memory.
func TestTrainingKernelsStayInRows(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(39))
		aMem, bMem, dstMem := guarded[float64](t), guarded[float64](t), guarded[float64](t)
		for _, k := range []int{1, 2, 5, 9, 20} {
			for _, m := range []int{1, 2, 3, 4, 7} {
				for _, n := range []int{1, 7, 8, 9, 16, 17, 20, 24, 25, 33, 65} {
					a, b := specialMatrix[float64](rng, m, k), specialMatrix[float64](rng, k, n)
					ga := &Matrix{Rows: m, Cols: k, Data: atEnd(aMem, m*k)}
					gb := &Matrix{Rows: k, Cols: n, Data: atEnd(bMem, k*n)}
					copy(ga.Data, a.Data)
					copy(gb.Data, b.Data)
					got := &Matrix{Rows: m, Cols: n, Data: atEnd(dstMem, m*n)}
					want := NewMatrix(m, n)
					MatMul(got, ga, gb)
					MatMul(want, a, b)
					assertBitwise(t, fmt.Sprintf("MatMul m=%d n=%d k=%d", m, n, k), got, want)
				}
			}
		}
		for _, rows := range []int{1, 3, 4, 5, 8, 12, 13, 16, 40} {
			for _, cols := range []int{1, 4, 7, 8, 12, 16, 17, 40} {
				src := specialMatrix[float64](rng, rows, cols)
				gsrc := &Matrix{Rows: rows, Cols: cols, Data: atEnd(aMem, rows*cols)}
				copy(gsrc.Data, src.Data)
				got := &Matrix{Rows: cols, Cols: rows, Data: atEnd(dstMem, rows*cols)}
				want := NewMatrix(cols, rows)
				Transpose(got, gsrc)
				Transpose(want, src)
				assertBitwise(t, fmt.Sprintf("Transpose %dx%d", rows, cols), got, want)
				sum, wantSum := SumSquaresByColumn(0, gsrc), SumSquaresByColumn(0, src)
				if sum != wantSum && (sum == sum || wantSum == wantSum) {
					t.Fatalf("SumSquaresByColumn %dx%d: %v, want %v", rows, cols, sum, wantSum)
				}
			}
		}
	})
}

// TestLaneKernelsStayInRows holds the exp and log lanes to their masked
// tails: for every length from one to 130, the input and the output end
// exactly where a PROT_NONE page begins, so a lane that loads or stores
// past the slice faults; every result must still be math.Exp's and
// math.Log's, and Softmax on guarded logits and probabilities the
// scalar loop's.
func TestLaneKernelsStayInRows(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(40))
		srcMem, dstMem := guarded[float64](t), guarded[float64](t)
		for n := 1; n <= 130; n++ {
			xs := laneInputs(rng, n)
			d := atEnd(dstMem, n)
			copy(d, xs)
			expInPlace(d)
			for i, x := range xs {
				if want := math.Exp(x); math.Float64bits(d[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d: exp [%d] = %v, math.Exp gives %v", n, i, d[i], want)
				}
			}
			s := atEnd(srcMem, n)
			copy(s, xs)
			LogFloor(d, s, 1e-12)
			for i, x := range xs {
				if want := math.Log(math.Max(x, 1e-12)); math.Float64bits(d[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d: log [%d] = %v, math.Log gives %v", n, i, d[i], want)
				}
			}
			for _, cols := range []int{1, 3, 8, 10} {
				if n%cols != 0 {
					continue
				}
				src := specialMatrix[float64](rng, n/cols, cols)
				gsrc := &Matrix{Rows: n / cols, Cols: cols, Data: atEnd(srcMem, n)}
				copy(gsrc.Data, src.Data)
				got := &Matrix{Rows: n / cols, Cols: cols, Data: atEnd(dstMem, n)}
				want := NewMatrix(n/cols, cols)
				Softmax(got, gsrc)
				softmaxScalar(want, src)
				assertBitwise(t, fmt.Sprintf("Softmax %dx%d", n/cols, cols), got, want)
			}
		}
	})
}
