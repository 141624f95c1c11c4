// Package tensor provides the dense numeric substrate used by the Eugene
// neural-network engine: matrices, batched matrix multiplication, and
// the element-wise kernels required for forward and backward passes.
//
// The matrix and the kernels the inference engine runs (Ensure, Dense,
// Add, AddReLU, ReLU, Softmax, Convert) have one generic body over Float;
// training stays in float64 (gradient noise compounds across epochs), so
// the backward-pass kernels are float64 only. Per element type there is
// only what the hardware forces: the micro-kernels and the row-tile
// loops around them — a ymm register holds 4 float64 lanes or 8 float32
// lanes, which together with the halved memory traffic is what the
// float32 serving tier buys.
//
// Dense is the whole fully connected layer in one pass — product, bias,
// a residual block's shortcut, ReLU — over weights stored in×out, as an
// outer product, and every output has one definition of its bits:
//
//	dst[r][j] = floor((s + bias[j]) + res[r][j]),
//	s = fma(a[r][K-1], w[K-1][j], … fma(a[r][0], w[0][j], +0))
//
// the FMA chain over ascending k from +0, one rounding a term, then the
// adds and the ReLU's floor (x < 0 ? +0 : x). The micro-kernels
// (outerTile64/32 on AVX2, outer512Tile64/32 on AVX-512) keep each output
// in one accumulator lane from start to end and denseScalar is the chain
// in Go, so every path gives the same bits by construction: there is no
// fold of lanes and no k tail, and a row's result never depends on the
// rows it was multiplied with.
//
// The dot form — a row of a against a row of b, element k in lane k mod
// lanes, the lanes folded in one fixed order — remains only for MatMulT
// and MatMulT32 (dotTile64/32, dot512Tile64/32), cmd/eugenebench's GEMM
// rungs; their portable loop (dotUnrolled) does not fuse, so it differs
// from them in the last bits, and nothing that is trained or served goes
// through them. The backward pass's products, MatMul and TMatMul,
// run a micro-kernel of their own (prodTile64, prod512Tile64) that must
// not fuse: one VMULPD and one VADDPD per term, in the order the portable
// loops round, so on every path they give the portable loops' bits. The
// trained bundle — the model the paper tables and the benchmark's oracle
// are computed from — goes through Dense and these products, so it is
// the same on every path, -tags noasm included; a kernel that changed
// one bit of it would change what every later number means.
//
// The package is deliberately small and allocation-conscious: every hot
// routine accepts destination buffers so the training loop in
// internal/nn can reuse scratch space across batches.
package tensor

import (
	"fmt"
	"math"
)

// Float is the set of element types the kernels are instantiated at. It
// is closed (no ~): every instantiation needs a dense micro-kernel of its
// own, see Dense.
type Float interface{ float32 | float64 }

// Mat is a dense row-major matrix. The zero value is an empty matrix;
// use New to allocate a sized one.
type Mat[T Float] struct {
	Rows int
	Cols int
	Data []T
}

// Matrix is the float64 matrix: what training, calibration and every
// boundary outside the inference engine exchange.
type Matrix = Mat[float64]

// Matrix32 is the float32 matrix. cmd/eugenebench names it.
type Matrix32 = Mat[float32]

// New allocates a zeroed rows×cols matrix.
func New[T Float](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// NewMatrix allocates a zeroed rows×cols float64 matrix.
func NewMatrix(rows, cols int) *Matrix { return New[float64](rows, cols) }

// NewMatrix32 is New[float32]. cmd/eugenebench names it.
func NewMatrix32(rows, cols int) *Matrix32 { return New[float32](rows, cols) }

// FromSlice wraps data as a rows×cols matrix without copying. The caller
// must ensure len(data) == rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row r, column c.
func (m *Mat[T]) At(r, c int) T { return m.Data[r*m.Cols+c] }

// Set stores v at row r, column c.
func (m *Mat[T]) Set(r, c int, v T) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Mat[T]) Row(r int) []T { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Mat[T]) Clone() *Mat[T] {
	out := New[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to zero.
func (m *Mat[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// String renders a compact description, useful in test failures.
func (m *Mat[T]) String() string {
	return fmt.Sprintf("Mat[%T](%dx%d)", *new(T), m.Rows, m.Cols)
}

// Ensure returns m reshaped to rows×cols, reusing its backing array when
// the capacity allows (batch sizes fluctuate dispatch to dispatch on the
// serving path), otherwise a new matrix. Callers must overwrite every
// element of the result: stale data from a previous shape is not cleared.
//
//eugene:noalloc
func Ensure[T Float](m *Mat[T], rows, cols int) *Mat[T] {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	if m != nil && cap(m.Data) >= rows*cols {
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
		return m
	}
	return New[T](rows, cols)
}

// MatMul computes dst = a·b, the input gradient of the backward pass
// (nn.Dense computes it as (W·gᵀ)ᵀ). dst must be a.Rows×b.Cols and
// distinct from both operands. With AVX2 it runs the training products'
// micro-kernel (prodTile64, or its 512-bit twin prod512Tile64 with
// AVX-512) on the caller; without, the portable ikj loop
// (matMulPortable). All three sum each output from zero in ascending k
// with one multiply and one add per term, so they give the same bits —
// the portable loop is the kernels' bitwise reference. Unlike Dense and
// MatMulT, this kernel must not fuse: the trained bundle, and with it
// the paper tables and the benchmark's oracle, is computed through these
// products, and a fused multiply-add would round them differently.
//
//eugene:noalloc
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if !hasAVX2FMA || b.Cols == 0 || a.Cols == 0 {
		matMulPortable(dst, a, b)
		return
	}
	runProduct64(dst, a, b, false)
}

// matMulPortable is MatMul in portable Go: a cache-friendly ikj loop
// ordering with a 4-way unrolled axpy inner loop.
//
//eugene:noalloc
func matMulPortable(dst, a, b *Matrix) {
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			axpyUnrolled(drow, arow[k], b.Data[k*n:k*n+n])
		}
	}
}

// runProduct64 is MatMul (TMatMul when transA) over every row of dst,
// one register tile of rows at a time. TMatMul's tiles add their sums to
// dst; MatMul's store them.
//
//eugene:noalloc
func runProduct64(dst, a, b *Matrix, transA bool) {
	n, k, ars, aks := b.Cols, a.Cols, a.Cols, 1
	if transA {
		k, ars, aks = a.Rows, 1, a.Cols
	}
	tile := prodTile64
	if hasAVX512 {
		tile = prod512Tile64
	}
	for i := 0; i < dst.Rows; i += narrowTile {
		tile(&dst.Data[i*n], &a.Data[i*ars], &b.Data[0], min(narrowTile, dst.Rows-i), n, k, ars, aks, transA)
	}
}

// Transpose writes srcᵀ into dst, which must be src.Cols×src.Rows and
// not src. At float64 with AVX2 the kernel transposeBlocks64 moves 4×4
// blocks through registers, eight source rows a pass; the edges left
// over, and every other path, go through transposeRange.
//
//eugene:noalloc
func Transpose[T Float](dst, src *Mat[T]) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic(fmt.Sprintf("tensor: Transpose dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, src.Cols, src.Rows))
	}
	rows, cols := src.Rows, src.Cols
	r0, c0 := 0, 0
	if d, ok := as[float64](&dst.Data); ok && hasAVX2FMA && rows >= 4 && cols >= 4 {
		s, _ := as[float64](&src.Data)
		r0, c0 = rows&^3, cols&^3
		transposeBlocks64(&d[0], &s[0], r0, c0, rows, cols)
	}
	transposeRange(dst, src, 0, r0, c0, cols)
	transposeRange(dst, src, r0, rows, 0, cols)
}

// transposeRange is Transpose over src's rows [rlo, rhi) and columns
// [clo, chi) in portable Go. Eight source rows go at a time, so that
// each row of dst gets eight contiguous elements while the eight rows of
// src are read across: a row-by-row walk writes dst a cache line per
// element, which at a 256-wide layer's row stride is four times slower.
//
//eugene:noalloc
func transposeRange[T Float](dst, src *Mat[T], rlo, rhi, clo, chi int) {
	rows := src.Rows
	r := rlo
	for ; r+8 <= rhi; r += 8 {
		s0, s1, s2, s3 := src.Row(r), src.Row(r+1), src.Row(r+2), src.Row(r+3)
		s4, s5, s6, s7 := src.Row(r+4), src.Row(r+5), src.Row(r+6), src.Row(r+7)
		for c := clo; c < chi; c++ {
			d := dst.Data[c*rows+r : c*rows+r+8]
			d[0], d[1], d[2], d[3] = s0[c], s1[c], s2[c], s3[c]
			d[4], d[5], d[6], d[7] = s4[c], s5[c], s6[c], s7[c]
		}
	}
	for ; r < rhi; r++ {
		for c, v := range src.Row(r)[clo:chi] {
			dst.Data[(clo+c)*rows+r] = v
		}
	}
}

// MatMulT computes dst = a·bᵀ, i.e. dst[i][j] = Σ_k a[i][k]·b[j][k].
// dst must be a.Rows×b.Rows and distinct from the operands. Each output
// is a dot product of two contiguous rows: with AVX2 element k in lane
// k mod 4 of one FMA chain (mod 8 at float32), the lanes folded in one
// fixed order (dotTile64, and with AVX-512 dot512Tile64, which gives its
// bits); without, dotUnrolled, which does not fuse and so differs in the
// last bits. It is cmd/eugenebench's GEMM rung. It runs on its caller,
// and a row's result does not depend on the rows it was multiplied with.
//
//eugene:noalloc
func MatMulT(dst, a, b *Matrix) {
	checkMatMulT(dst, a, b)
	n, k, m := b.Rows, a.Cols, a.Rows
	if !hasAVX2FMA || n == 0 || k == 0 {
		matMulTScalar(dst, a, b)
		return
	}
	i := 0
	if hasAVX512 && n >= wideGroup {
		for ; m-i >= 2; i += rowTile {
			dot512Tile64(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], min(rowTile, m-i), n, k)
		}
	}
	for ; i < m; i += narrowTile {
		dotTile64(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], min(narrowTile, m-i), n, k)
	}
}

// MatMulT32 is MatMulT in float32.
//
//eugene:noalloc
func MatMulT32(dst, a, b *Matrix32) {
	checkMatMulT(dst, a, b)
	n, k, m := b.Rows, a.Cols, a.Rows
	if !hasAVX2FMA || n == 0 || k == 0 {
		matMulTScalar(dst, a, b)
		return
	}
	i := 0
	if hasAVX512 && n >= wideGroup {
		for ; m-i >= 2; i += rowTile {
			dot512Tile32(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], min(rowTile, m-i), n, k)
		}
	}
	for ; i < m; i += narrowTile {
		dotTile32(&dst.Data[i*n], &a.Data[i*k], &b.Data[0], min(narrowTile, m-i), n, k)
	}
}

func checkMatMulT[T Float](dst, a, b *Mat[T]) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
}

// The dot kernels take up to narrowTile rows a call on AVX2, and 2 to
// rowTile rows against at least wideGroup rows of b (one register group)
// on AVX-512; a single row, and fewer rows of b, run the AVX2 kernel,
// whose bits the AVX-512 one gives.
const wideGroup = 8

// matMulTScalar is MatMulT in portable Go.
//
//eugene:noalloc
func matMulTScalar[T Float](dst, a, b *Mat[T]) {
	for i := 0; i < a.Rows; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for j := range drow {
			drow[j] = dotUnrolled(arow, b.Row(j))
		}
	}
}

// Dense computes the fully connected layer dst = a·w + bias + res,
// floored at zero when relu is set. w is stored in×out (k×n): row k
// holds every output's weight for input k. dst must be a.Rows×w.Cols
// and distinct from the operands, bias (length w.Cols) may be nil for
// none, and res, dst's shape, may be nil for none. res is a residual
// block's shortcut: the block's input, added after the bias and before
// the floor, rounding as Add after a bias-only Dense does ((s + bias) +
// res is res + (s + bias) bit for bit), so a block's last layer and its
// sum are one pass. Every output has one definition of its bits:
//
//	dst[i][j] = floor((s + bias[j]) + res[i][j]),
//	s = fma(a[i][K-1], w[K-1][j], … fma(a[i][0], w[0][j], +0))
//
// — the FMA chain over ascending k from +0, then the adds, with floor
// the ReLU's (x < 0 ? +0 : x, so NaN and -0 pass). A nil operand is no
// add. This is the one place the type set of Float is enumerated: it
// hands the layer to T's kernel, once per call, and a new precision tier
// adds a case here and a micro-kernel.
//
// With AVX2 and FMA the layer is the outer-product micro-kernel
// (outerTile64, outerTile32): blocks of w's columns outside, tiles of up
// to rowTile rows of a inside, so each block of w is fetched from memory
// once per call and stays in cache for the tiles after the first; each
// output is one accumulator lane over k, with bias, residual and ReLU
// applied before the store. With AVX-512 the blocks are four times as
// wide (outer512Tile64, outer512Tile32), and a last block of up to 8
// float64 or 16 float32 columns — a narrow head's outputs — runs the
// AVX2 kernel, which wastes fewer lanes on it. Without either,
// denseScalar is the chain in Go. Every path gives the same bits, because no output's
// sum is split over lanes or depends on its neighbours: Dense on rows
// [0, m) equals m one-row calls bit for bit. It runs on its caller.
func Dense[T Float](dst, a, w *Mat[T], bias []T, res *Mat[T], relu bool) {
	switch d := any(dst).(type) {
	case *Matrix:
		b, _ := any(bias).([]float64)
		dense64(d, any(a).(*Matrix), any(w).(*Matrix), b, any(res).(*Matrix), relu)
	case *Matrix32:
		b, _ := any(bias).([]float32)
		dense32(d, any(a).(*Matrix32), any(w).(*Matrix32), b, any(res).(*Matrix32), relu)
	}
}

func checkDense[T Float](dst, a, w *Mat[T], bias []T, res *Mat[T]) {
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: Dense shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, w.Rows, w.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: Dense dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, w.Cols))
	}
	if bias != nil && len(bias) != w.Cols {
		panic(fmt.Sprintf("tensor: Dense bias length %d != %d outputs", len(bias), w.Cols))
	}
	if res != nil {
		checkSameShape("Dense residual", res, dst)
		if len(res.Data) > 0 && &res.Data[0] == &dst.Data[0] {
			panic("tensor: Dense residual is dst")
		}
	}
}

// Row tiles. rowTile is the most rows of a one outer-product kernel call
// takes (and one AVX-512 dot kernel call); narrowTile the most one AVX2
// dot kernel call and one product kernel call take.
const (
	rowTile    = 6
	narrowTile = 3
)

// dense64 is Dense at float64.
//
//eugene:noalloc
func dense64(dst, a, w *Matrix, bias []float64, resM *Matrix, relu bool) {
	checkDense(dst, a, w, bias, resM)
	n, k, m := w.Cols, a.Cols, a.Rows
	if !hasAVX2FMA || n == 0 || k == 0 {
		denseScalar(dst, a, w, bias, resM, relu)
		return
	}
	var res []float64
	if resM != nil {
		res = resM.Data
	}
	for c := 0; c < n; {
		tile, cols := outer512Tile64, min(32, n-c)
		if !hasAVX512 || cols <= 8 {
			tile, cols = outerTile64, min(8, n-c)
		}
		for i := 0; i < m; i += rowTile {
			tile(&dst.Data[i*n+c], &a.Data[i*k], &w.Data[c], rowAt(bias, c), rowAt(res, i*n+c),
				min(rowTile, m-i), n, k, cols, relu)
		}
		c += cols
	}
}

// dense32 is Dense at float32.
//
//eugene:noalloc
func dense32(dst, a, w *Matrix32, bias []float32, resM *Matrix32, relu bool) {
	checkDense(dst, a, w, bias, resM)
	n, k, m := w.Cols, a.Cols, a.Rows
	if !hasAVX2FMA || n == 0 || k == 0 {
		denseScalar(dst, a, w, bias, resM, relu)
		return
	}
	var res []float32
	if resM != nil {
		res = resM.Data
	}
	for c := 0; c < n; {
		tile, cols := outer512Tile32, min(64, n-c)
		if !hasAVX512 || cols <= 16 {
			tile, cols = outerTile32, min(16, n-c)
		}
		for i := 0; i < m; i += rowTile {
			tile(&dst.Data[i*n+c], &a.Data[i*k], &w.Data[c], rowAt(bias, c), rowAt(res, i*n+c),
				min(rowTile, m-i), n, k, cols, relu)
		}
		c += cols
	}
}

// rowAt is &s[i], or nil for a nil s: an optional operand's row for a
// kernel.
//
//eugene:noalloc
func rowAt[T Float](s []T, i int) *T {
	if s == nil {
		return nil
	}
	return &s[i]
}

// denseScalar is Dense in portable Go — the only path
// off amd64, under -tags noasm and on a CPU without AVX2 and FMA, and
// the definition the kernels give the bits of. A row of dst holds its
// outputs' chains while a's row streams down w's rows in memory order,
// four k steps to a pass over the row.
//
//eugene:noalloc
func denseScalar[T Float](dst, a, w *Mat[T], bias []T, res *Mat[T], relu bool) {
	n := w.Cols
	for i := 0; i < a.Rows; i++ {
		drow, arow := dst.Row(i), a.Row(i)
		clear(drow)
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			fmaRows(drow, arow[k:k+4], w.Data[k*n:(k+4)*n])
		}
		for ; k < len(arow); k++ {
			fmaRows(drow, arow[k:k+1], w.Data[k*n:k*n+n])
		}
		for j, s := range drow {
			if bias != nil {
				s += bias[j]
			}
			if res != nil {
				s += res.Data[i*n+j]
			}
			if relu && s < 0 {
				s = 0
			}
			drow[j] = s
		}
	}
}

// fmaRows runs len(x) k steps (one or four) of a row's chains: for
// every j, s = dst[j], then per step q s = x[q]·w[q·n+j] + s rounded once
// to T (the one rounding of the kernels' VFMADD231PD and VFMADD231PS),
// and dst[j] = s; n = len(dst), and w holds len(x) rows of it.
//
//eugene:noalloc
func fmaRows[T Float](dst, x, w []T) {
	n := len(dst)
	if d, ok := as[float64](&dst); ok {
		x, _ := as[float64](&x)
		w, _ := as[float64](&w)
		if len(x) == 4 {
			w0, w1, w2, w3 := w[:n], w[n:2*n], w[2*n:3*n], w[3*n:4*n]
			for j := range d {
				d[j] = math.FMA(x[3], w3[j], math.FMA(x[2], w2[j], math.FMA(x[1], w1[j], math.FMA(x[0], w0[j], d[j]))))
			}
			return
		}
		for j, v := range w[:n] {
			d[j] = math.FMA(x[0], v, d[j])
		}
		return
	}
	for q, xq := range x {
		for j, v := range w[q*n : q*n+n] {
			dst[j] = T(fma32(float32(xq), float32(v), float32(dst[j])))
		}
	}
}

// fma32 is x·y + z rounded once to float32. The product of two float32
// is exact in float64, so x·y + z is one float64 addition, but rounding
// that sum to nearest and then to float32 can round twice the wrong way
// (a sum just past a float32 midpoint that float64 rounds onto it). So
// the sum is rounded to odd instead — to nearest, then, if inexact (its
// error from TwoSum, exact here), onto its odd neighbour towards the
// true sum — and float64's 29 extra bits make the narrowing of a
// round-to-odd value round exactly as the sum itself would.
//
//eugene:noalloc
func fma32(x, y, z float32) float32 {
	p := float64(float64(x) * float64(y))
	c := float64(z)
	s := p + c
	bp := s - c
	// e is NaN, and s left alone, when s is infinite or NaN.
	if e := (p - bp) + (c - (s - bp)); e != 0 && e == e {
		if bits := math.Float64bits(s); bits&1 == 0 {
			if (e > 0) == (s > 0) {
				bits++
			} else {
				bits--
			}
			s = math.Float64frombits(bits)
		}
	}
	return float32(s)
}

// TMatMul adds aᵀ·b to dst, i.e. dst[i][j] += Σ_k a[k][i]·b[k][j]: the
// weight gradient of the backward pass, accumulated in place. dst must
// be a.Cols×b.Cols. It is MatMul's kernel with a read down a's columns
// and an epilogue that adds each tile's sums to dst, and like MatMul it
// gives the bits of its portable loop (tMatMulPortable) on every path:
// each sum runs from zero in ascending k and is then added to dst once,
// which is the product into a zeroed scratch followed by dst += 1·scratch
// bit for bit, since 1·x is exact.
//
//eugene:noalloc
func TMatMul(dst, a, b *Matrix) {
	checkTMatMul(dst, a, b)
	runTMatMul(gemmJob{dst: dst, a: a, b: b})
}

// TMatMul is the package's TMatMul queued on the lane: it runs on the
// lane's helper, or now when the lane has none (a nil lane included).
// dst is not to be read, nor a or b changed, until Wait.
//
//eugene:noalloc
func (l *Lane) TMatMul(dst, a, b *Matrix) {
	checkTMatMul(dst, a, b)
	l.do(gemmJob{run: runTMatMul, dst: dst, a: a, b: b})
}

func checkTMatMul(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMul dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
}

//eugene:noalloc
func runTMatMul(j gemmJob) {
	if !hasAVX2FMA || j.b.Cols == 0 || j.a.Rows == 0 {
		tMatMulPortable(j.dst, j.a, j.b)
		return
	}
	runProduct64(j.dst, j.a, j.b, true)
}

// tMatMulPortable is TMatMul in portable Go: each output row summed in a
// one-row temporary on the stack (in column blocks of its length), from
// zero in ascending k, then added to dst.
//
//eugene:noalloc
func tMatMulPortable(dst, a, b *Matrix) {
	var buf [256]float64
	n := b.Cols
	for j0 := 0; j0 < n; j0 += len(buf) {
		j1 := min(j0+len(buf), n)
		sum := buf[:j1-j0]
		for i := 0; i < a.Cols; i++ {
			clear(sum)
			for k := 0; k < a.Rows; k++ {
				axpyUnrolled(sum, a.Data[k*a.Cols+i], b.Data[k*n+j0:k*n+j1])
			}
			drow := dst.Data[i*n+j0 : i*n+j1]
			for c, v := range sum {
				drow[c] += v
			}
		}
	}
}

// as is *s when T is S: a generic body's way into a kernel of one type.
//
//eugene:noalloc
func as[S, T Float](s *[]T) ([]S, bool) {
	//lint:ignore hotpathalloc a pointer boxes without allocating and the assertion keeps it from escaping; TestDenseAllocs holds it at zero
	p, ok := any(s).(*[]S)
	if !ok {
		return nil, false
	}
	return *p, true
}

// dotUnrolled is the 4-way unrolled inner-product loop behind Dot and
// MatMulT's portable path. Four independent accumulators break the
// add-latency dependency chain; lengths must match (callers check).
//
//eugene:noalloc
func dotUnrolled[T Float](a, b []T) T {
	var s0, s1, s2, s3 T
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// axpyUnrolled computes dst[i] += alpha*src[i] with a 4-way unrolled
// loop; lengths must match (callers check).
//
//eugene:noalloc
func axpyUnrolled(dst []float64, alpha float64, src []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] += alpha * src[i]
		dst[i+1] += alpha * src[i+1]
		dst[i+2] += alpha * src[i+2]
		dst[i+3] += alpha * src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// Add computes dst[i] = a[i] + b[i] element-wise; shapes must match. dst
// may alias a or b.
//
//eugene:noalloc
func Add[T Float](dst, a, b *Mat[T]) {
	checkSameShape("Add", a, b)
	checkSameShape("Add", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// AddReLU computes dst[i] = max(0, a[i]+b[i]) element-wise; the fused
// shortcut-connection + activation kernel of a residual block whose body
// does not end in a Dense (one that does takes its shortcut in Dense's
// epilogue). dst may alias a or b. The floor is
// the max builtin, not a comparison: pre-activations change sign from
// one element to the next, and a branch on them mispredicts about every
// other time (some 11 cycles an element against one). NaN propagates.
//
//eugene:noalloc
func AddReLU[T Float](dst, a, b *Mat[T]) {
	checkSameShape("AddReLU", a, b)
	checkSameShape("AddReLU", dst, a)
	// Slices in locals, lengths tied: no header reload and no bounds
	// check per element, which is half this loop's time.
	x := a.Data
	y, d := b.Data[:len(x)], dst.Data[:len(x)]
	for i, v := range x {
		d[i] = max(v+y[i], 0)
	}
}

// ReLU applies max(0, src[i]) element-wise into dst, branch-free like
// AddReLU; shapes must match. dst may alias src.
//
//eugene:noalloc
func ReLU[T Float](dst, src *Mat[T]) {
	checkSameShape("ReLU", dst, src)
	d := dst.Data[:len(src.Data)]
	for i, v := range src.Data {
		d[i] = max(v, 0)
	}
}

// Convert copies src into dst, converting the element type; lengths must
// match. The inference engine's stage boundary: hidden rows cross it as
// float64 whatever the stage computes in. Between slices of one type it
// is copy, a memmove rather than an element loop.
//
//eugene:noalloc
func Convert[D, S Float](dst []D, src []S) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Convert length mismatch %d vs %d", len(dst), len(src)))
	}
	//lint:ignore hotpathalloc a pointer boxes without allocating and the assertion keeps it from escaping; TestConvertRoundTrip's AllocsPerRun holds it at zero
	if same, ok := any(&dst).(*[]S); ok {
		copy(*same, src)
		return
	}
	for i, v := range src {
		dst[i] = D(v)
	}
}

// Narrow is Convert from float64 to float32. cmd/eugenebench names it.
func Narrow(dst []float32, src []float64) { Convert(dst, src) }

// SumSquaresByColumn returns sum with the square of every element of m
// added to it one at a time, down column 0, then down column 1, and so
// on: each square rounded, then each sum, with no fused multiply-add at
// any GOAMD64 level.
// The order is the column-major walk whatever m's layout in memory,
// which is how training's clip norm reads a weight gradient stored
// in×out in the out×in order a snapshot keeps. A walk straight down the
// columns of a matrix whose row stride is a power of two maps a column
// into a couple of cache sets and misses on every element, so with AVX2
// the kernel sumSquaresStrips64 transposes strips of eight columns into
// a scratch while it sums the previous strip, and the sums walk the
// scratch front to back; the last columns of a width that is not a
// multiple of eight, and every other path, walk m.
func SumSquaresByColumn(sum float64, m *Matrix) float64 {
	rows, cols := m.Rows, m.Cols
	c := 0
	if hasAVX2FMA && rows%4 == 0 && rows > 0 && cols >= 8 {
		var scratch [2 * 8 * 256]float64
		buf := scratch[:]
		if 16*rows > len(buf) {
			buf = make([]float64, 16*rows)
		}
		c = cols &^ 7
		sum = sumSquaresStrips64(sum, &m.Data[0], rows, c/8, cols, &buf[0], &buf[8*rows])
	}
	for ; c < cols; c++ {
		for i := c; i < len(m.Data); i += cols {
			sum += float64(m.Data[i] * m.Data[i]) // rounded apart: never fused
		}
	}
	return sum
}

// ColSums accumulates the per-column sums of m into dst (length m.Cols);
// the bias-gradient reduction.
func ColSums(dst []float64, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSums dst length %d != cols %d", len(dst), m.Cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			dst[c] += row[c]
		}
	}
}

// Softmax writes the row-wise softmax of the logits src into the float64
// probability matrix dst (shapes must match). It is numerically stable
// (subtracts the row max before exponentiation). Whatever the logits'
// type, the exponentials and the normalization run in float64:
// confidences feed the scheduler's early-exit comparisons, so a reduced
// tier spends the few extra cycles here to keep its confidence surface
// as close to the float64 model's as its logits allow.
//
// Every row is exp(v − max) over the row, each times the reciprocal of
// their sum taken in column order. The exponentials of the whole matrix
// go through expInPlace (SIMD lanes with math.Exp's bits, where the CPU
// has them); the max and the sum run four rows at a time, so that four
// chains run side by side. A NaN logit makes its row all NaN.
//
//eugene:noalloc
func Softmax[T Float](dst *Matrix, src *Mat[T]) {
	checkSameShape("Softmax", dst, src)
	n := src.Cols
	r := 0
	for ; r+4 <= src.Rows; r += 4 {
		shiftRows4(dst.Data[r*n:(r+4)*n], src.Data[r*n:(r+4)*n], n)
	}
	for ; r < src.Rows; r++ {
		shiftRows4(dst.Row(r), src.Row(r), n)
	}
	expInPlace(dst.Data)
	r = 0
	for ; r+4 <= dst.Rows; r += 4 {
		normalizeRows4(dst.Data[r*n:(r+4)*n], n)
	}
	for ; r < dst.Rows; r++ {
		normalizeRows4(dst.Row(r), n)
	}
}

// shiftRows4 sets out[j] = in[j] − max(row) for the rows of n in in,
// four of them or one, with the difference taken in T. The max is the
// max builtin, branch-free: a branch on which logit leads mispredicts
// a couple of times a row. Where it parts from that branch — +0 over
// −0, NaN over the first element — no output moves: exp(±0) is 1, and
// a row with a NaN is NaN throughout either way.
//
//eugene:noalloc
func shiftRows4[T Float](out []float64, in []T, n int) {
	if len(in) == n {
		m := in[0]
		for _, v := range in[1:] {
			m = max(m, v)
		}
		for j, v := range in {
			out[j] = float64(v - m)
		}
		return
	}
	a := in[:n]
	b, c, d := in[n:][:len(a)], in[2*n:][:len(a)], in[3*n:][:len(a)]
	ma, mb, mc, md := a[0], b[0], c[0], d[0]
	for j := 1; j < len(a); j++ {
		ma, mb, mc, md = max(ma, a[j]), max(mb, b[j]), max(mc, c[j]), max(md, d[j])
	}
	oa := out[:len(a)]
	ob, oc, od := out[n:][:len(a)], out[2*n:][:len(a)], out[3*n:][:len(a)]
	for j := range a {
		oa[j], ob[j], oc[j], od[j] = float64(a[j]-ma), float64(b[j]-mb), float64(c[j]-mc), float64(d[j]-md)
	}
}

// normalizeRows4 multiplies each of the rows of n in e, four or one, by
// the reciprocal of its sum, taken from +0 in column order.
//
//eugene:noalloc
func normalizeRows4(e []float64, n int) {
	if len(e) == n {
		var s float64
		for _, v := range e {
			s += v
		}
		inv := 1 / s
		for j := range e {
			e[j] *= inv
		}
		return
	}
	a := e[:n]
	b, c, d := e[n:][:len(a)], e[2*n:][:len(a)], e[3*n:][:len(a)]
	var sa, sb, sc, sd float64
	for j := range a {
		sa, sb, sc, sd = sa+a[j], sb+b[j], sc+c[j], sd+d[j]
	}
	ia, ib, ic, id := 1/sa, 1/sb, 1/sc, 1/sd
	for j := range a {
		a[j], b[j], c[j], d[j] = a[j]*ia, b[j]*ib, c[j]*ic, d[j]*id
	}
}

// Entropy returns the Shannon entropy (nats) of probability vector p.
// Zero entries contribute zero.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// ArgMax returns the index of the largest element of v, and its value.
//
//eugene:noalloc
func ArgMax(v []float64) (int, float64) {
	best, bestV := 0, math.Inf(-1)
	for i, x := range v {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best, bestV
}

// Dot returns the inner product of a and b (lengths must match).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	return dotUnrolled(a, b)
}

func checkSameShape[A, B Float](op string, a *Mat[A], b *Mat[B]) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
