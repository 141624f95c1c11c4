// Package tensor provides the dense numeric substrate used by the Eugene
// neural-network engine: matrices, batched matrix multiplication, and
// the element-wise kernels required for forward and backward passes.
//
// The matrix and the kernels the inference engine runs (Ensure, Dense,
// Add, AddReLU, ReLU, Softmax, Convert) have one generic body over Float;
// training stays in float64 (gradient noise compounds across epochs), so
// the backward-pass kernels are float64 only. Per element type there is
// only what the hardware forces: the AVX2+FMA dense micro-kernel and the
// row-tile loop around it (runDense64, runDense32) — a ymm register holds
// 4 float64 lanes or 8 float32 lanes, which together with the halved
// memory traffic is what the float32 serving tier buys. Dense is the
// whole fully connected layer in one pass — product, bias, a residual
// block's shortcut, ReLU — and a row's result never depends on the rows
// it was multiplied with.
//
// Where the CPU has AVX-512 (F and VL, picked by CPUID and XCR0 alone)
// every kernel runs a 512-bit twin with the 256-bit kernel's bits. A
// ymm accumulator of the AVX2 dense kernel is one chain: one row of a
// against one weight row, element k in lane k mod lanes. A zmm
// accumulator of dense512Tile64/dense512Tile32 is two such chains side
// by side — rows 2p and 2p+1 of a, in its low and high 256-bit halves,
// against one weight row broadcast to both — so each chain meets the
// same elements in the same lanes and order, and each half is folded by
// the AVX2 kernel's own instructions. The product kernel's twin,
// prod512Tile64, widens each register from 4 columns to 8; every column
// is still its own sum. Same bits on both paths means the trained model,
// the served answers and every pinned hash do not depend on which ran.
//
// Two micro-kernels, two rounding contracts. Dense's fuses: each term is
// one FMA, so its results differ from the portable dotUnrolled path in
// the last bits, and that is accepted (forward passes at serving are
// what it is built for). The backward pass's products, MatMul and
// TMatMul, run an AVX2 kernel of their own (prodTile64) that must not
// fuse: one VMULPD and one VADDPD per term, in the order the portable
// loops round, so on every path they give the portable loops' bits and
// those loops are its bitwise reference. The trained bundle — the model
// the paper tables and the benchmark's oracle are computed from — goes
// through them, and a kernel that changed one bit of it would change
// what every later number means.
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

// MatMul computes dst = a·b, the input gradient of the backward pass.
// dst must be a.Rows×b.Cols and distinct from both operands. With AVX2 it
// runs the training products' micro-kernel (prodTile64, or its 512-bit
// twin prod512Tile64 with AVX-512) through the fan-out rule; without,
// the portable ikj loop (matMulPortable). All three sum each output from
// zero in ascending k with one multiply and one add per term, so they
// give the same bits — the portable loop is the kernels' bitwise
// reference. Unlike Dense, this kernel must not fuse:
// the trained bundle, and with it the paper tables and the benchmark's
// oracle, is computed through these products, and a fused multiply-add
// would round them differently.
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
	fanOut(gemmJob{run: runProduct64, dst: dst, a: a, b: b}, a.Rows, a.Rows*b.Cols*a.Cols)
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

// runProduct64 is MatMul (TMatMul when j.transA) over rows [j.lo, j.hi)
// of dst, one register tile of rows at a time. TMatMul's tiles add their
// sums to dst; MatMul's store them.
//
//eugene:noalloc
func runProduct64(j gemmJob) {
	n, k, ars, aks := j.b.Cols, j.a.Cols, j.a.Cols, 1
	if j.transA {
		k, ars, aks = j.a.Rows, 1, j.a.Cols
	}
	tile := prodTile64
	if hasAVX512 {
		tile = prod512Tile64
	}
	for i := j.lo; i < j.hi; i += denseRowTile {
		tile(&j.dst.Data[i*n], &j.a.Data[i*ars], &j.b.Data[0], min(denseRowTile, j.hi-i), n, k, ars, aks, j.transA)
	}
}

// MatMulT computes dst = a·bᵀ, i.e. dst[i][j] = Σ_k a[i][k]·b[j][k].
// dst must be a.Rows×b.Rows. It is Dense with no bias and no ReLU — the
// same kernel, fan-out rule and reduction order — for callers that want
// the bare product: cmd/eugenebench's GEMM rung.
//
//eugene:noalloc
func MatMulT(dst, a, b *Matrix) { dense64(dst, a, b, nil, nil, false) }

// MatMulT32 is MatMulT in float32.
//
//eugene:noalloc
func MatMulT32(dst, a, b *Matrix32) { dense32(dst, a, b, nil, nil, false) }

// Dense computes the fully connected layer dst = a·wᵀ + bias + res,
// floored at zero when relu is set: dst[i][j] = Σ_k a[i][k]·w[j][k] +
// bias[j] + res[i][j]. dst must be a.Rows×w.Rows and distinct from the
// operands; w is stored out×in, so a row of w is one output neuron's
// contiguous weights, bias (length w.Rows) may be nil for none, and res,
// dst's shape, may be nil for none. res is a residual block's shortcut:
// the block's input, added after the bias and before the floor, rounding
// as Add after a bias-only Dense does ((s + bias) + res is res + (s +
// bias) bit for bit), so a block's last layer and its sum are one pass.
// This is the one place the type set of Float is enumerated: it hands the
// layer to T's kernel, once per call, and a new precision tier adds a
// case here and a micro-kernel.
//
// With AVX2 and FMA the whole layer is one pass of the assembly
// micro-kernel (denseTile64, denseTile32): rows of a in register tiles
// of denseRowTile, each weight row streamed once per tile, bias, residual
// and ReLU applied to the sums before they are stored. A ragged last tile
// and a one-row call run the same kernel at a lower row count. With
// AVX-512 the tiles are of up to wideRowTile rows, on the 512-bit twin
// (dense512Tile64, dense512Tile32), with the same bits. Without them
// every output is dotUnrolled plus the same epilogue. Either way an
// output is reduced over k in one fixed order, so a row's result does not
// depend on how many rows it was batched with or where in the batch it
// sat: Dense on rows [0, m) equals m one-row calls bit for bit, and a
// product split over helper goroutines (parallel.go) equals the serial
// one. NaN propagates; results differ across builds (FMA rounds once).
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

//eugene:noalloc
func dense64(dst, a, w *Matrix, bias []float64, res *Matrix, relu bool) {
	checkDense(dst, a, w, bias, res)
	fanOut(gemmJob{run: runDense64, dst: dst, a: a, b: w, bias: bias, res: res, relu: relu}, a.Rows, a.Rows*w.Rows*a.Cols)
}

//eugene:noalloc
func dense32(dst, a, w *Matrix32, bias []float32, res *Matrix32, relu bool) {
	checkDense(dst, a, w, bias, res)
	fanOut(gemmJob{run: runDense32, dst32: dst, a32: a, b32: w, bias32: bias, res32: res, relu: relu}, a.Rows, a.Rows*w.Rows*a.Cols)
}

func checkDense[T Float](dst, a, w *Mat[T], bias []T, res *Mat[T]) {
	if a.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: Dense shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, w.Rows, w.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != w.Rows {
		panic(fmt.Sprintf("tensor: Dense dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, w.Rows))
	}
	if bias != nil && len(bias) != w.Rows {
		panic(fmt.Sprintf("tensor: Dense bias length %d != %d outputs", len(bias), w.Rows))
	}
	if res != nil {
		checkSameShape("Dense residual", res, dst)
		if len(res.Data) > 0 && &res.Data[0] == &dst.Data[0] {
			panic("tensor: Dense residual is dst")
		}
	}
}

// denseRowTile is the most rows of a one 256-bit micro-kernel call
// takes, and the grain the fan-out splits rows on.
const denseRowTile = 3

// The 512-bit dense kernels take 2 to wideRowTile rows a call (pairs of
// rows, one pair to a zmm register) against at least wideGroup weight
// rows (one register group); a single row, and a layer of fewer outputs,
// run the 256-bit kernel, whose bits they give.
const (
	wideRowTile = 6
	wideGroup   = 8
)

// runDense64 is Dense over rows [j.lo, j.hi) of a and dst at float64.
//
//eugene:noalloc
func runDense64(j gemmJob) {
	n, k := j.b.Rows, j.a.Cols
	if !hasAVX2FMA || n == 0 || k == 0 {
		denseScalar(j.dst, j.a, j.b, j.bias, j.res, j.relu, j.lo, j.hi)
		return
	}
	bias := rowAt(j.bias, 0)
	var res []float64
	if j.res != nil {
		res = j.res.Data
	}
	i := j.lo
	if hasAVX512 && n >= wideGroup {
		for ; j.hi-i >= 2; i += wideRowTile {
			dense512Tile64(&j.dst.Data[i*n], &j.a.Data[i*k], &j.b.Data[0], bias, rowAt(res, i*n), min(wideRowTile, j.hi-i), n, k, j.relu)
		}
	}
	for ; i < j.hi; i += denseRowTile {
		denseTile64(&j.dst.Data[i*n], &j.a.Data[i*k], &j.b.Data[0], bias, rowAt(res, i*n), min(denseRowTile, j.hi-i), n, k, j.relu)
	}
}

// runDense32 is runDense64 at float32.
//
//eugene:noalloc
func runDense32(j gemmJob) {
	n, k := j.b32.Rows, j.a32.Cols
	if !hasAVX2FMA || n == 0 || k == 0 {
		denseScalar(j.dst32, j.a32, j.b32, j.bias32, j.res32, j.relu, j.lo, j.hi)
		return
	}
	bias := rowAt(j.bias32, 0)
	var res []float32
	if j.res32 != nil {
		res = j.res32.Data
	}
	i := j.lo
	if hasAVX512 && n >= wideGroup {
		for ; j.hi-i >= 2; i += wideRowTile {
			dense512Tile32(&j.dst32.Data[i*n], &j.a32.Data[i*k], &j.b32.Data[0], bias, rowAt(res, i*n), min(wideRowTile, j.hi-i), n, k, j.relu)
		}
	}
	for ; i < j.hi; i += denseRowTile {
		denseTile32(&j.dst32.Data[i*n], &j.a32.Data[i*k], &j.b32.Data[0], bias, rowAt(res, i*n), min(denseRowTile, j.hi-i), n, k, j.relu)
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

// denseScalar is Dense over rows [lo, hi) in portable Go: the only path
// off amd64, under -tags noasm and on a CPU without AVX2 and FMA.
//
//eugene:noalloc
func denseScalar[T Float](dst, a, w *Mat[T], bias []T, res *Mat[T], relu bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow, drow := a.Row(i), dst.Row(i)
		for j := range drow {
			s := dotUnrolled(arow, w.Row(j))
			if bias != nil {
				s += bias[j]
			}
			if res != nil {
				s += res.Data[i*res.Cols+j]
			}
			if relu {
				s = max(s, 0)
			}
			drow[j] = s
		}
	}
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
	j.run, j.transA = runProduct64, true
	fanOut(j, j.a.Cols, j.a.Cols*j.b.Cols*j.a.Rows)
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

// dotUnrolled is the 4-way unrolled inner-product kernel behind Dot and
// the portable Dense. Four independent accumulators break the
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
//eugene:noalloc
func Softmax[T Float](dst *Matrix, src *Mat[T]) {
	checkSameShape("Softmax", dst, src)
	for r := 0; r < src.Rows; r++ {
		in := src.Row(r)
		out := dst.Row(r)
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
