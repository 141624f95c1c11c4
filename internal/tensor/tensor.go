// Package tensor provides the dense numeric substrate used by the Eugene
// neural-network engine: matrices, batched matrix multiplication, 2-D
// convolution via im2col, and the element-wise kernels required for
// forward and backward passes.
//
// The package is deliberately small and allocation-conscious: every hot
// routine accepts destination buffers so the training loop in
// internal/nn can reuse scratch space across batches.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values. The zero value is
// an empty matrix; use NewMatrix to allocate a sized one.
type Matrix struct {
	Rows int
	Cols int
	Data []float64
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix without copying. The caller
// must ensure len(data) == rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d matrix", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores v at row r, column c.
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Shape returns (rows, cols).
func (m *Matrix) Shape() (int, int) { return m.Rows, m.Cols }

// String renders a compact description, useful in test failures.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// Ensure returns m reshaped to rows×cols, reusing its backing array when
// the capacity allows (batch sizes fluctuate dispatch to dispatch on the
// serving path), otherwise a new matrix. Callers must overwrite every
// element of the result: stale data from a previous shape is not cleared.
//eugene:noalloc
func Ensure(m *Matrix, rows, cols int) *Matrix {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	if m != nil && cap(m.Data) >= rows*cols {
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
		return m
	}
	return NewMatrix(rows, cols)
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
// MatMulT. Four independent accumulators break the add-latency dependency
// chain; lengths must match (callers check).
//eugene:noalloc
func dotUnrolled(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
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

// Add computes dst[i] = a[i] + b[i] element-wise; shapes must match.
func Add(dst, a, b *Matrix) {
	checkSameShape("Add", a, b)
	checkSameShape("Add", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst[i] = a[i] - b[i] element-wise.
func Sub(dst, a, b *Matrix) {
	checkSameShape("Sub", a, b)
	checkSameShape("Sub", dst, a)
	for i := range a.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Scale multiplies every element of m by s in place.
func Scale(m *Matrix, s float64) {
	for i := range m.Data {
		m.Data[i] *= s
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
func AddRowVector(m *Matrix, v []float64) {
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
// almost always followed by a ReLU).
func AddReLU(dst, a, b *Matrix) {
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
func AddRowVectorReLU(m *Matrix, v []float64) {
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

// Softmax writes the row-wise softmax of src into dst (shapes must match).
// It is numerically stable (subtracts the row max before exponentiation).
//eugene:noalloc
func Softmax(dst, src *Matrix) {
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
			e := math.Exp(v - maxv)
			out[c] = e
			sum += e
		}
		inv := 1 / sum
		for c := range out {
			out[c] *= inv
		}
	}
}

// LogSumExp returns log(Σ exp(v)) computed stably.
func LogSumExp(v []float64) float64 {
	maxv := math.Inf(-1)
	for _, x := range v {
		if x > maxv {
			maxv = x
		}
	}
	if math.IsInf(maxv, -1) {
		return maxv
	}
	var sum float64
	for _, x := range v {
		sum += math.Exp(x - maxv)
	}
	return maxv + math.Log(sum)
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

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
