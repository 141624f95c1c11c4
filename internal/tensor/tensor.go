// Package tensor provides the dense numeric substrate used by the Eugene
// neural-network engine: matrices, batched matrix multiplication, 2-D
// convolution via im2col, and the element-wise kernels required for
// forward and backward passes.
//
// The matrix and the kernels the inference engine runs (Ensure, Add,
// AddReLU, AddRowVector, AddRowVectorReLU, ReLU, Softmax, Convert) have
// one generic body over Float; training stays in float64 (gradient noise
// compounds across epochs), so the backward-pass kernels are float64
// only. Per element type there is only what the hardware forces: the
// AVX2+FMA micro-kernels, their scalar fallbacks and the register-tile
// loop around each (MatMulT, MatMulT32) — a ymm register holds 4 float64
// lanes or 8 float32 lanes, which together with the halved memory
// traffic is what the float32 serving tier buys.
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
// is closed (no ~): every instantiation needs a GEMM micro-kernel of its
// own, see MatMulTOf.
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

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from
// both operands. It uses a cache-friendly ikj loop ordering with a 4-way
// unrolled axpy inner loop.
//eugene:noalloc
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
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

// MatMulT computes dst = a·bᵀ, i.e. dst[i][j] = Σ_k a[i][k]·b[j][k].
// dst must be a.Rows×b.Rows. This is the layout Dense forward passes
// use (weights stored out×in), so a row of b is one output neuron's
// contiguous weight vector. Rows of a are processed in register tiles
// of four: each weight row is streamed once per four batch samples
// instead of once per sample, which is what makes a B-row batch
// materially cheaper than B separate matvecs; single-row calls fall
// through to the unrolled dot kernel. Products of several gemmGrain split
// their rows over idle helper goroutines (see parallel.go); the split is
// at tile boundaries, so the result is bitwise identical to the serial
// one.
//eugene:noalloc
func MatMulT(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	fanOut(gemmJob{run: runMatMulT, dst: dst, a: a, b: b}, a.Rows, a.Rows*b.Rows*a.Cols)
}

// matMulTRange runs the MatMulT kernel over rows [lo, hi) of a/dst.
//eugene:noalloc
func matMulTRange(dst, a, b *Matrix, lo, hi int) {
	n := a.Cols
	n8 := 0
	if hasAVX2FMA {
		n8 = n &^ 7
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i)[:n], a.Row(i + 1)[:n], a.Row(i + 2)[:n], a.Row(i + 3)[:n]
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)[:n]
			var s0, s1, s2, s3 float64
			k := 0
			if n8 > 0 {
				s0, s1, s2, s3 = dot4FMA(&a0[0], &a1[0], &a2[0], &a3[0], &brow[0], n8)
				k = n8
			}
			for ; k < n; k++ {
				bk := brow[k]
				s0 += a0[k] * bk
				s1 += a1[k] * bk
				s2 += a2[k] * bk
				s3 += a3[k] * bk
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] = dotUnrolled(arow, b.Row(j))
		}
	}
}

// MatMulT32 computes dst = a·bᵀ in float32: MatMulT's contract, register
// tile and fan-out rule (tile-aligned splits over the same helpers, so
// the result is bitwise identical to serial), with 8 lanes per ymm
// register via dot4FMA32 where MatMulT has 4.
//eugene:noalloc
func MatMulT32(dst, a, b *Matrix32) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT32 shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT32 dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	fanOut(gemmJob{run: runMatMulT32, dst32: dst, a32: a, b32: b}, a.Rows, a.Rows*b.Rows*a.Cols)
}

// matMulT32Range runs the MatMulT32 kernel over rows [lo, hi) of a/dst.
//eugene:noalloc
func matMulT32Range(dst, a, b *Matrix32, lo, hi int) {
	n := a.Cols
	n16 := 0
	if hasAVX2FMA {
		n16 = n &^ 15
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i)[:n], a.Row(i + 1)[:n], a.Row(i + 2)[:n], a.Row(i + 3)[:n]
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)[:n]
			var s0, s1, s2, s3 float32
			k := 0
			if n16 > 0 {
				s0, s1, s2, s3 = dot4FMA32(&a0[0], &a1[0], &a2[0], &a3[0], &brow[0], n16)
				k = n16
			}
			for ; k < n; k++ {
				bk := brow[k]
				s0 += a0[k] * bk
				s1 += a1[k] * bk
				s2 += a2[k] * bk
				s3 += a3[k] * bk
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			drow[j] = dotUnrolled(arow, b.Row(j))
		}
	}
}

// MatMulTOf is dst = a·bᵀ for code that is generic over the element
// type: it hands the product to T's entry point, once per GEMM. This is
// the one place the type set of Float is enumerated; a new precision
// tier adds a case here and a micro-kernel.
func MatMulTOf[T Float](dst, a, b *Mat[T]) {
	switch d := any(dst).(type) {
	case *Matrix:
		MatMulT(d, any(a).(*Matrix), any(b).(*Matrix))
	case *Matrix32:
		MatMulT32(d, any(a).(*Matrix32), any(b).(*Matrix32))
	}
}

// TMatMul computes dst = aᵀ·b, i.e. dst[i][j] = Σ_k a[k][i]·b[k][j].
// dst must be a.Cols×b.Cols.
func TMatMul(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMul dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	dst.Zero()
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := 0; i < a.Cols; i++ {
			drow := dst.Data[i*n : i*n+n]
			axpyUnrolled(drow, arow[i], brow)
		}
	}
}

// dotUnrolled is the 4-way unrolled inner-product kernel behind Dot and
// the single-row tail of MatMulT/MatMulT32. Four independent accumulators
// break the add-latency dependency chain; lengths must match (callers
// check).
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
//eugene:noalloc
func Add[T Float](dst, a, b *Mat[T]) {
	checkSameShape("Add", a, b)
	checkSameShape("Add", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// AXPY computes dst += alpha*src element-wise.
func AXPY(dst *Matrix, alpha float64, src *Matrix) {
	checkSameShape("AXPY", dst, src)
	for i := range src.Data {
		dst.Data[i] += alpha * src.Data[i]
	}
}

// AddRowVector adds vector v (length m.Cols) to every row of m in place;
// the standard bias broadcast.
//eugene:noalloc
func AddRowVector[T Float](m *Mat[T], v []T) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector vector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			row[c] += v[c]
		}
	}
}

// AddReLU computes dst[i] = max(0, a[i]+b[i]) element-wise; the fused
// shortcut-connection + activation kernel (a residual block's output is
// almost always followed by a ReLU). dst may alias a or b.
//eugene:noalloc
func AddReLU[T Float](dst, a, b *Mat[T]) {
	checkSameShape("AddReLU", a, b)
	checkSameShape("AddReLU", dst, a)
	for i := range a.Data {
		s := a.Data[i] + b.Data[i]
		if s < 0 {
			s = 0
		}
		dst.Data[i] = s
	}
}

// AddRowVectorReLU adds vector v (length m.Cols) to every row of m and
// applies ReLU in place: m[r][c] = max(0, m[r][c]+v[c]). Fusing the bias
// broadcast with the activation saves one full pass over the batch on the
// Dense→ReLU pairs that dominate the staged-model forward path.
//eugene:noalloc
func AddRowVectorReLU[T Float](m *Mat[T], v []T) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVectorReLU vector length %d != cols %d", len(v), m.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c := range row {
			s := row[c] + v[c]
			if s < 0 {
				s = 0
			}
			row[c] = s
		}
	}
}

// ReLU applies max(0, src[i]) element-wise into dst; shapes must match.
// dst may alias src.
//eugene:noalloc
func ReLU[T Float](dst, src *Mat[T]) {
	checkSameShape("ReLU", dst, src)
	for i, v := range src.Data {
		if v < 0 {
			v = 0
		}
		dst.Data[i] = v
	}
}

// Convert copies src into dst, converting the element type; lengths must
// match. The inference engine's stage boundary: hidden rows cross it as
// float64 whatever the stage computes in.
//eugene:noalloc
func Convert[D, S Float](dst []D, src []S) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Convert length mismatch %d vs %d", len(dst), len(src)))
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
