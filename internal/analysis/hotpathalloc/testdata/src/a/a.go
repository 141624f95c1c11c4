// Package a seeds hotpathalloc violations in //eugene:noalloc
// functions — unguarded make/new, slice literals, nil-slice appends,
// fmt calls, capturing closures, interface boxing — beside the legal
// arena idioms: len/cap and nil guards, resliced scratch, plain struct
// literals, fmt inside panic, and a justified //lint:ignore.
package a

import "fmt"

type pool struct {
	bufs [][]float64
	maxW int
}

//eugene:noalloc
func (p *pool) get() []float64 {
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs = p.bufs[:n-1]
		return b[:0]
	}
	return make([]float64, 0, p.maxW) // want `calls make outside a len/cap/nil guard`
}

//eugene:noalloc
func getGuarded(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

//eugene:noalloc
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

//eugene:noalloc
func reuseScratch(p *pool, xs []float64) {
	rows := p.bufs[:0]
	for range xs {
		rows = append(rows, nil)
	}
	p.bufs = rows
}

//eugene:noalloc
func reassignedScratch(p *pool, xs []float64) {
	var rows [][]float64
	rows = p.bufs[:0]
	for range xs {
		rows = append(rows, nil)
	}
	p.bufs = rows
}

//eugene:noalloc
func bad(n int) []int {
	out := []int{1, 2} // want `builds a slice or map literal`
	var acc []int
	acc = append(acc, n)     // want `appends to the nil-declared slice acc`
	_ = fmt.Sprintf("%d", n) // want `calls fmt\.Sprintf`
	q := new(int)            // want `calls new outside a len/cap/nil guard`
	_ = q
	f := func() int { return n } // want `closure captures variables`
	_ = f
	_ = any(n) // want `converts to an interface type`
	return out
}

type task struct {
	id   int
	conf float64
}

//eugene:noalloc
func nilGuard(t *task) *task {
	if t == nil {
		t = &task{}
	}
	return t
}

//eugene:noalloc
func plainStructOK(id int) task {
	return task{id: id}
}

//eugene:noalloc
func escapingStruct(id int) *task {
	return &task{id: id} // want `allocates with &task\{\.\.\.\}`
}

//eugene:noalloc
func failurePath(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n))
	}
}

// The inference kernels are generic over the element type; the
// annotation must bind a generic function and a method on a generic
// receiver like any other, and T(v) is arithmetic, not boxing.
type mat[T float32 | float64] struct{ data []T }

//eugene:noalloc
func genericKernel[T float32 | float64](dst *mat[T], src []float64) {
	for i, v := range src {
		dst.data[i] = T(v) + T(1)
	}
	tmp := make([]T, len(src)) // want `genericKernel is //eugene:noalloc but calls make outside a len/cap/nil guard`
	_ = tmp
	_ = any(dst.data[0]) // want `converts to an interface type`
}

//eugene:noalloc
func (m *mat[T]) ensure(n int) []T {
	if cap(m.data) < n {
		m.data = make([]T, n)
	}
	out := &mat[T]{data: m.data[:n]} // want `allocates with &mat\[T\]\{\.\.\.\}`
	return out.data
}

// free is unannotated: it may allocate.
func free() []int { return make([]int, 8) }

//eugene:noalloc
func suppressed(w int) []float64 {
	//lint:ignore hotpathalloc pool-miss fallback is the documented slow path
	return make([]float64, 0, w)
}
