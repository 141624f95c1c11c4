package tensor

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestDenseKernelsStayInRows holds the dense kernels to simd_amd64.s's
// promise that no load or store touches a byte past a row's end: a, the
// weights, the bias, the residual and dst each end exactly where a
// PROT_NONE page begins, so a kernel that reads or writes one element too
// far faults.
// Every k residue of both precisions' lanes, with and without full steps,
// at row counts that take every tile size and output counts that take a
// partial group of four and a moved-back group of eight, on each kernel
// path the CPU has; each result must also equal the same product on
// ordinary memory.
func TestDenseKernelsStayInRows(t *testing.T) {
	perType(t,
		func(t *testing.T) { onEachPath(t, testDenseKernelsStayInRows[float64]) },
		func(t *testing.T) { onEachPath(t, testDenseKernelsStayInRows[float32]) })
}

func testDenseKernelsStayInRows[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	aMem, wMem, biasMem, resMem, dstMem := guarded[T](t), guarded[T](t), guarded[T](t), guarded[T](t), guarded[T](t)
	for k := 1; k <= 33; k++ {
		for _, m := range []int{1, 2, 3, 5, 6, 7} {
			for _, n := range []int{1, 3, 8, 9, 13} {
				a, w, bias := specialMatrix[T](rng, m, k), specialMatrix[T](rng, n, k), specialMatrix[T](rng, 1, n).Data
				ga := &Mat[T]{Rows: m, Cols: k, Data: atEnd(aMem, m*k)}
				gw := &Mat[T]{Rows: n, Cols: k, Data: atEnd(wMem, n*k)}
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

// guarded maps a page of T followed by a PROT_NONE page, unmapped when
// the test ends.
func guarded[T Float](t *testing.T) []T {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), page/int(unsafe.Sizeof(zero)))
}

// atEnd is the last n elements of mem: they end at the guard page.
func atEnd[T Float](mem []T, n int) []T { return mem[len(mem)-n:] }
